"""Certified inner loop: Bregman composite gradient steps on the scaling function.

Step i solves

    z+ = argmin_z  <grad f_reg(z_i), z - z_i> + psi(z) + 2 L_i breg(z_i, z)

whose optimality conditions yield the constructive subgradient

    g = 2 L_i (grad rho(z_i) - grad rho(z+)) - grad f_reg(z_i)  in  dpsi(z+),

and the loop stops as soon as (z+, g) is acceptable for the proximal
certificate at the anchor. Every step, in every dimension, is solved by
``prox_newton``, the package's one minimizer of smooth convex + psi, which
also gives the exact prox (``exact_prox``) and the tensor step
(``tensor.tensor_step``).

The step constant L_i is backtracked between mu and L of
``relative_constants`` (relative smoothness: Lu, Freund and Nesterov 2018;
adaptive inexact models: Stonyakin et al. 2021). The factor 2 buys the
descent: the step's optimality at w = z_i gives
<grad f_reg(z_i), z+ - z_i> + psi(z+) - psi(z_i) <= -2 L_i breg(z_i, z+), so
wherever the relative descent inequality

    f_reg(z+) <= f_reg(z_i) + <grad f_reg(z_i), z+ - z_i> + L_i breg(z_i, z+)

holds, phi(z_i) - phi(z+) >= L_i breg(z_i, z+), and with relative mu-strong
convexity breg(z+, z*) <= (1 - mu/(2 L_i)) breg(z_i, z*) + (phi* - phi(z+))/(2 L_i)
(``verify bregman`` checks both at each step's L_i). Testing at 2 L_i would
keep the contraction but give only a nonincreasing phi. So a step whose
candidate the certificate rejects is kept only if the inequality holds;
otherwise L_i doubles (to at most L) and the step is redone from z_i. A
step at L_i = L is kept untested: at p >= 4, or at a bi-level M_k below the
true bound on D^{p+1} f, mu and L are nominal (see ``bregman``), so the
descent test and the certificate, not L, guard every returned point. After
a kept step L_i halves, never below mu, where only rounding could fail the
inequality. The test reads f(z+) from the certificate and breg(z_i, z+)
from the two rho passes, so only a rejected candidate costs an oracle call
beyond the certificates.

The loop starts at an explicit z0 in dom psi (see ``WarmStart``): the outer
loops pass the previous certified point T_{k-1} (x_0 at the first step)
with the last constant that solve kept; the first solve starts at L. The
linear rate counts from breg(z0, z*), and T_{k-1} tends to lie nearer the
new prox point z* than the anchor does (on the bench, inner steps fall 1.7
to 4.6 times). The contraction bound holds from any z0 in dom psi (``verify
bregman`` checks it from a seeded start), so the start changes the step
count, never the acceptance test.

The scaling function of one inner solve is built once (see ``bregman``).
Every point costs one ``ScalingFunction.evaluate`` pass (rho, its gradient
and Hessian, and the power term's |d|, d(d) and grad d(d)), which serves the
next Newton iteration, the next step (as prox-Newton's start, when the
projection onto dom psi leaves z in place) and the trace's Bregman distance. At a
candidate z+ the certificate reads |d| and grad d(d) off that pass, and
f_reg(z+) and the next step's grad f_reg are formed from it (and z0's from
the pass at z0), so d and its norm are formed once per point. f and grad f
at a candidate come from one residual pass, in its certificate, which the
next step, the descent test and the outer loop read; a start that brings
them along evaluates neither. The certificate also takes the membership
distance of g that the step has computed for its own residual check; both
checks still run on it. Within a Newton iteration psi(w) is evaluated once,
and the Hessian shift is added in place, on the diagonal of the Hessian the
pass has just formed; the model decrease that the Armijo test reads is formed
only when the full step is refused.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field

import numpy as np
from scipy.linalg.lapack import dgesv

from .acceptance import ACCEPT_SLACK, check_acceptable
from .bregman import RegularizedObjective, ScalingFunction
from .errors import NumericalError, ParameterError
from .metric import norm
# bench/spans.py traces minimize_composite_1d through this binding
from .univariate import decreasing_root, minimize_composite_1d  # noqa: F401

_RES_TOL = 1e-12
_NEWTON_CAP = 200
_HALVING_CAP = 50
_PASS_CAP = 20
# kept steps of one inner solve
_STEP_CAP = 2000


def csv_text(columns, rows):
    """CSV text: a header of ``columns``, then one line per row of cells.

    An int cell is written by ``str``, any other by ``repr(float(v))``, so
    equal runs give equal bytes. Every trace and scan CSV is written here.
    """
    lines = [",".join(columns)]
    lines += [",".join(str(v) if isinstance(v, int) else repr(float(v)) for v in row)
              for row in rows]
    return "\n".join(lines) + "\n"


@dataclass
class InnerRow:
    i: int
    phi: float
    bregman_step: float
    lhs: float
    rhs: float
    ratio: float


@dataclass
class InnerTrace:
    """Per-step record of one inner run; phi must be nonincreasing.

    ``points[i]`` is row i's point (``points[0]`` is z0), ``newton_iters``
    the run's prox-Newton iterations, ``lsmooth`` the constant L_i of each
    kept step (``lsmooth[i - 1]`` is row i's; a fixed-point exit keeps one
    constant and no row beyond row 0) and ``backtracks`` the number of
    rejected step candidates. None of them goes into the CSV.
    """

    rows: list = field(default_factory=list)
    points: list = field(default_factory=list)
    newton_iters: int = 0
    lsmooth: list = field(default_factory=list)
    backtracks: int = 0

    COLUMNS = ("i", "phi", "bregman_step", "lhs", "rhs", "ratio")

    def to_csv(self):
        return csv_text(self.COLUMNS, map(astuple, self.rows))


@dataclass
class WarmStart:
    """z0 of an inner solve, with what is already known there.

    f(z0) and grad f(z0), when given, are not evaluated again; ``lsmooth`` is
    the first step's constant, in [mu, L] (L when not given). The outer loops
    start at x_0 with the f(x_0) of F(x_0), then at each certified point
    T_{k-1} (``at``) with the last constant its solve kept.
    """

    point: np.ndarray
    f_value: float = None
    gradient: np.ndarray = None
    lsmooth: float = None

    @classmethod
    def at(cls, cert, lsmooth=None):
        """Start at a certificate's point with the f and grad f it holds."""
        return cls(cert.point, cert.f_value, cert.gradient, lsmooth)


@dataclass
class InnerResult:
    certificate: object
    iterations: int
    trace: InnerTrace = None


class StepSolver:
    """One inner step z -> z+ by ``prox_newton``; ``newton_iters`` counts its model steps."""

    # bench/spans.py names each traced step by this attribute
    route = "prox_newton"

    def __init__(self, sf, term):
        self.sf = sf
        self.term = term
        self.newton_iters = 0

    def step(self, z, lsmooth, grad_reg=None, rho_z=None):
        """Minimize phi(w) = 2L rho(w) + <ctil, w> + psi(w), ctil = c - 2L grad rho(z).

        c = grad f_reg(z) and L = ``lsmooth``, the step's constant. ``grad_reg``
        is c and ``rho_z`` the pass ``sf.evaluate(z, hessian=True)``, when the
        caller has them; otherwise they are computed here. Returns (z+, g, rho
        pass at z+, distance from g to dpsi(z+)): the pass is the next step's
        ``rho_z`` (each Newton iterate's rho pass rides along with phi's), and
        the pass and the distance are what the certificate of (z+, g) reads.
        """
        z = np.asarray(z, dtype=float)
        sf, term = self.sf, self.term
        if rho_z is None:
            rho_z = sf.evaluate(z, hessian=True)
        c = sf.oracle.gradient(z) + sf.h * rho_z[5] if grad_reg is None else grad_reg
        two_l = 2.0 * lsmooth
        grad_z = rho_z[1]
        ctil = c - two_l * grad_z
        tol = _RES_TOL * max(1.0, norm(c))

        def evaluate(w, rho=None):
            if rho is None:
                rho = sf.evaluate(w, hessian=True)
            return (two_l * rho[0] + float(np.dot(ctil, w)), two_l * rho[1] + ctil,
                    two_l * rho[2], rho)

        w0 = term.project(z)
        # a start that the projection leaves in place reads z's rho pass
        at_w0 = evaluate(w0, rho_z if (w0 == z).all() else None)
        w, at_w, steps = prox_newton(evaluate, term, w0, at_w0, 0.5 * tol)
        self.newton_iters += steps
        rho_w = at_w[3]
        g = two_l * (grad_z - rho_w[1]) - c
        dist = term.subgradient_distance(w, g)
        if dist > 100.0 * tol:
            raise NumericalError("prox-Newton step residual %.3e > %.1e" % (dist, 100.0 * tol),
                                 residual=dist)
        return w, g, rho_w, dist


def prox_newton(evaluate, term, w, at_w, tol):
    """argmin s + psi by damped proximal Newton (Lee, Sun and Saunders 2014): (w, pass, steps).

    ``evaluate(w)`` is one pass: s(w), grad s(w), the Hessian H of s, then
    anything the caller keeps; ``at_w`` is the caller's pass at the start w,
    so no point is evaluated twice. H must be a new C-contiguous array at every
    call: prox-Newton adds its shift to H's diagonal in place, through a
    strided view of H (an H in any other layout is copied first and the copy
    shifted). A step minimizes the model with H + 1e-11 (1 + max |H_ii|) I
    plus psi exactly (``_model_min``), is taken whole unless s + psi rises by
    more than 1e-15 |s + psi|, else halved to the Armijo condition (50
    halvings raise ``NumericalError``); the model decrease that condition
    reads is formed only then. Stops once -grad s(w) is within ``tol`` of
    dpsi(w), or after ``_NEWTON_CAP`` steps. The pass returned is the one at
    the returned w, its H unshifted.
    """
    psi_w = term.value(w)
    fw = at_w[0] + psi_w
    steps = 0
    for _ in range(_NEWTON_CAP):
        gw = at_w[1]
        if term.subgradient_distance(w, -gw) <= tol:
            break
        hm = np.ascontiguousarray(at_w[2])
        diag = hm.reshape(-1)[:: len(w) + 1]  # a writable view of H's diagonal
        diag += 1e-11 * (1.0 + float(np.abs(diag).max()))
        cand = _model_min(term, w, gw, hm)
        steps += 1
        d = cand - w
        model_drop = None
        t = 1.0
        for _ in range(_HALVING_CAP):
            wt = w + d if t == 1.0 else w + t * d
            at_t = evaluate(wt)
            psi_t = term.value(wt)
            ft = at_t[0] + psi_t
            # the full step may rise by rounding; a shorter one must
            # make the Armijo decrease
            if t == 1.0:
                limit = fw + 1e-15 * abs(fw)
            else:
                if model_drop is None:
                    model_drop = -(float(np.dot(gw, d)) + 0.5 * float(d @ hm @ d)
                                   + term.value(cand) - psi_w)
                limit = fw - 1e-4 * t * max(model_drop, 0.0)
            if ft <= limit:
                break
            t *= 0.5
        else:
            raise NumericalError("prox-Newton line search failed after %d halvings"
                                 % _HALVING_CAP)
        w, fw, at_w, psi_w = wt, ft, at_t, psi_t
    return w, at_w, steps


def _composite_argmin(evaluate, term, start, slack):
    """argmin of a smooth part plus psi, T, and g in dpsi(T) nearest to -grad(T).

    ``prox_newton`` runs on ``evaluate`` from ``start`` projected onto dom psi,
    whose one pass also gives the tolerance. That tolerance lets the residual
    fall by slack/2 relative to the one at that point, exact at the scale of
    its own step, and below slack/2 in norm: a check with additive ``slack``
    keeps half for rounding.
    """
    w0 = term.project(start)
    at_w0 = evaluate(w0)
    tol = 0.5 * slack * min(1.0, term.subgradient_distance(w0, -at_w0[1]))
    t, at_t, _ = prox_newton(evaluate, term, w0, at_w0, tol)
    return t, term.subgradient_select(t, -at_t[1])


def exact_prox(oracle, term, cfg, anchor):
    """Exact prox point T of f + psi at the anchor, and g in dpsi(T).

    ``_composite_argmin`` minimizes f_reg + psi from the anchor at the
    ``ACCEPT_SLACK`` tolerance, one residual pass per prox-Newton point, and
    g is nearest to -grad f_reg(T), so the pair certifies at every beta,
    beta = 0 included.
    """
    anchor = np.asarray(anchor, dtype=float)
    reg = RegularizedObjective(oracle, anchor, cfg.p, cfg.h)
    return _composite_argmin(lambda x: reg.evaluate(x, hessian=True), term, anchor,
                             ACCEPT_SLACK)


def _model_min(term, w, grad, hm):
    """argmin q(z) = <grad, z-w> + (z-w)'hm(z-w)/2 + psi(z), by the kind of psi.

    psi = 0 takes one linear solve and the ball an eigenbasis solve. Other
    separable psi take a monotone primal active-set method (More and
    Toraldo 1991): each coordinate is fixed at a kink or free on a piece of
    slope s_i, as at w to start, and y solves the free block. A segment
    z -> y that leaves a piece ends at y clipped into the pieces if that
    lowers q, else at the first kink, which is fixed. Otherwise z = y, and
    fixed coordinates whose multiplier -r_i lies outside dpsi_i(z_i) by
    more than rounding are freed (after a zero-length step only the
    furthest). A pass that frees coordinates keeps z, so the next pass reuses
    its model gradient. q never rises; a pass cap raises ``NumericalError``.
    Both linear solves (psi = 0 and the free block) are one LAPACK LU call
    (``_solve``), which leaves hm and the free block as they are: the clip
    test and prox-Newton's Armijo decrease read them afterwards.
    """
    if term.kind == "zero":
        return w - _solve(hm, grad)
    if not term.is_separable:
        return _ball_quadratic(term, w, grad, hm)
    n = len(w)
    z = term.project(w)
    lo, hi = term.subdifferential(z)
    fixed = lo < hi
    slope = np.where(fixed, 0.0, lo)
    moved = True
    gmax, hmax = abs(grad).max(), abs(hm).max()
    r = None  # the model gradient at z, kept while z does not move
    for _ in range(_PASS_CAP * n):
        if r is None:
            dz = z - w
            r = grad + hm @ dz
        nfixed = np.count_nonzero(fixed)
        if nfixed < n:
            f = ~fixed
            hff = hm[f][:, f] if nfixed else hm
            lof, hif = (b[f] for b in term.piece(slope))
            zf, rs = z[f], r[f] + slope[f]
            y = zf - _solve(hff, rs)
            new = np.minimum(np.maximum(y, lof), hif)
            out = new != y
            if np.count_nonzero(out):
                d = new - zf
                if float(d @ rs) + 0.5 * float(d @ hff @ d) >= 0.0:
                    # the clipped point does not lower q: stop at the first kink
                    alpha = np.where(out, d, 1.0) / np.where(out, y - zf, 1.0)
                    a = alpha.min()
                    out &= alpha <= a
                    new = np.where(out, new, np.clip(zf + a * (y - zf), lof, hif))
                moved = bool(np.count_nonzero(new != zf))
                z[f] = new
                fixed[f] = out
                r = None
                continue
            if not nfixed:
                return y
            moved = bool(np.count_nonzero(y != zf))
            z[f] = y
            dz = z - w
            r = grad + hm @ dz
        lo, hi = term.subdifferential(z)
        up, down = -r - hi, lo + r
        viol = np.where(fixed, np.maximum(up, down), -np.inf)
        # r_i sums |grad_i| and n products |hm_ij (z_j - w_j)|, each rounded
        slack = n * np.spacing(gmax + hmax * abs(dz).sum())
        free = viol > slack
        if not np.count_nonzero(free):
            return z
        if not moved:
            free = viol >= viol.max()
        fixed &= ~free
        slope = np.where(free, np.where(up > down, hi, lo), slope)
    raise NumericalError("active-set model step reached %d passes" % (_PASS_CAP * n))


def _solve(a, b):
    """a^{-1} b by one LAPACK LU call (``dgesv``), a and b left as they are.

    Raises ``np.linalg.LinAlgError`` for an exactly singular a, as
    ``np.linalg.solve`` does, without numpy's Python wrapper around the call.
    """
    _, _, x, info = dgesv(a, b)
    if info > 0:
        raise np.linalg.LinAlgError("Singular matrix")
    if info < 0:
        raise ValueError("dgesv: illegal value in argument %d" % -info)
    return x


def _ball_quadratic(term, w, grad, hm):
    """argmin <grad, z-w> + (z-w)'hm(z-w)/2 over |z - center| <= radius.

    A trust-region subproblem shifted to the ball's center (More and
    Sorensen 1983): z - center = (hm + a I)^{-1} (hm (w - center) - grad)
    for the least multiplier a >= 0 that puts z in the ball, solved in
    the eigenbasis of hm. hm is positive definite (prox-Newton adds a
    multiple of I), so |z - center| decreases in a and there is no hard
    case.
    """
    center, radius = term.center, term.radius
    lam, vec = np.linalg.eigh(hm)
    bt = vec.T @ (hm @ (w - center) - grad)

    def excess(a):
        v = bt / (lam + a)
        return norm(v) - radius

    a = 0.0
    if excess(a) > 0.0:
        # |bt| / radius would be a root if lam were 0, so it brackets
        a = decreasing_root(excess, 0.0, norm(bt) / radius)
    return center + vec @ (bt / (lam + a))


def inner_solve(oracle, term, cfg, rc, anchor, start):
    """Run the inner loop at ``anchor`` from z0 = start until the certificate accepts.

    ``start`` is a point of dom psi or a ``WarmStart``, whose f(z0) and
    grad f(z0), when given, are reused (row 0's phi and the first step's
    grad f_reg) and which may also carry the first step's constant
    (``WarmStart.at`` starts at a certificate's point); a bare start takes
    both from one residual pass (``evaluate``). Returns an
    InnerResult whose trace rows carry (i, phi, bregman_step, lhs, rhs,
    ratio) per kept step; row 0 records phi(z0), and the trace keeps each
    row's point, each kept step's L_i, the rejected candidates and the run's
    prox-Newton iterations. More than ``_STEP_CAP`` kept steps raise
    ``NumericalError``.

    A start that the first step leaves in place (to rounding) is returned
    with 0 iterations and no row beyond row 0. The exit does not need
    z0 = anchor. A fixed point z+ = z of the step has
    g = 2L_1 (grad rho(z) - grad rho(z+)) - grad f_reg(z) = -grad f_reg(z) in
    dpsi(z), so 0 lies in grad f_reg(z) + dpsi(z), whatever z0 and L_1 were:
    z is the exact prox point of the anchor, and its certificate's lhs
    |grad f_reg(z) + g|_* vanishes to rounding. At z0 = anchor, grad f_reg = grad f
    there, so the anchor is composite-stationary for F. At z0 = T_{k-1} the
    previous point is already the new prox point. Either way the exit still
    requires the certificate to accept.
    """
    if rc.mu <= 0:
        raise ParameterError("relative strong convexity requires xi > 1")
    anchor = np.asarray(anchor, dtype=float)
    if not isinstance(start, WarmStart):
        start = WarmStart(start)
    lcap = rc.lsmooth
    l_i = lcap if start.lsmooth is None else float(start.lsmooth)
    if not rc.mu <= l_i <= lcap:
        raise ParameterError("the first step constant %r lies outside [mu, L]" % l_i)
    z = np.array(start.point, dtype=float)
    if not term.contains(z):
        raise ParameterError("inner loop must start inside dom psi")
    sf = ScalingFunction(oracle, anchor, cfg.p, cfg.h)
    solver = StepSolver(sf, term)
    # rho at z, f_reg(z) and grad f_reg(z) pass from step to step; f_reg and
    # grad f_reg read the power term's d(d) and grad d(d) off the rho pass
    rho_z = sf.evaluate(z, hessian=True)
    f_z, grad_f = start.f_value, start.gradient
    if f_z is None and grad_f is None:
        f_z, grad_f, _ = oracle.evaluate(z)
    f_z = oracle.value(z) if f_z is None else f_z
    grad_f = oracle.gradient(z) if grad_f is None else grad_f
    freg_z = f_z + sf.h * rho_z[4]
    c = grad_f + sf.h * rho_z[5]
    trace = InnerTrace(rows=[InnerRow(0, freg_z + term.value(z),
                                      np.nan, np.nan, np.nan, np.nan)], points=[z.copy()])
    i = 0
    while i < _STEP_CAP:
        z_new, g, rho_new, gap = solver.step(z, l_i, c, rho_z)
        # the certificate, f_reg(z_new) and the next grad f_reg read the power
        # term's |d|, d(d) and grad d(d) off the rho pass at z_new
        cert = check_acceptable(oracle, term, cfg, anchor, z_new, g, gap,
                                (rho_new[3], rho_new[5]))
        freg_new = cert.f_value + sf.h * rho_new[4]
        # breg(z, z_new) from the passes at both ends
        breg = rho_new[0] - rho_z[0] - float(np.dot(rho_z[1], z_new - z))
        if (not cert.accepted and l_i < lcap
                and freg_new > freg_z + float(np.dot(c, z_new - z)) + l_i * breg):
            # the relative descent inequality fails at L_i: redo the step from z
            trace.backtracks += 1
            l_i = min(2.0 * l_i, lcap)
            continue
        i += 1
        if cert.rhs > 0:
            ratio = cert.lhs / cert.rhs
        else:
            ratio = 0.0 if cert.accepted else np.inf
        fixed_point = i == 1 and cert.accepted and (
            float(np.abs(z_new - z).max()) <= 1e-14 * (1.0 + float(np.abs(z).max()))
        )
        trace.lsmooth.append(l_i)
        if not fixed_point:
            phi = freg_new + term.value(z_new)
            trace.rows.append(InnerRow(i, phi, breg, cert.lhs, cert.rhs, ratio))
            trace.points.append(z_new.copy())
        if cert.accepted:
            trace.newton_iters = solver.newton_iters
            return InnerResult(cert, 0 if fixed_point else i, trace)
        z, rho_z, freg_z = z_new, rho_new, freg_new
        c = cert.gradient + sf.h * rho_new[5]
        l_i = max(0.5 * l_i, rc.mu)
    raise NumericalError(
        "inner loop exceeded %d iterations" % _STEP_CAP, residual=trace.rows[-1].ratio
    )
