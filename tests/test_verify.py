"""The odd-derivative bracket, and every property suite across seeds."""

import math

import numpy as np
import pytest

from hiprox import AnchorStack, get_problem, list_problems
from hiprox.verify import _odd_bracket_violation, _segment_points, run_suite, suite_sandwich


def test_unit_weight_bracket_counterexample_at_p4():
    # (x-1)^4 at p = 4 with M_5 = 0 and xi = 2, at y = 2, x = 2.5, u = 1.
    # Carrying the p = 3 bracket over with unit weights on every odd term
    # (and a D^5 f term the order-(p-2) expansion never produces) asserts
    # |24 t h| <= 3 t^2 + 12 h^2 with t = y - 1, h = x - y: false at t = 2h.
    # The form derived from convexity on y +- xi h is tight there.
    prob = get_problem("quartic-1d")
    p, xi, m = 4, 2.0, prob.m_next(4)
    assert m == 0.0
    y, x, u = np.array([2.0]), np.array([2.5]), np.array([1.0])
    h = x - y

    stack = AnchorStack(prob.oracle, y, range(2, p + 2))

    def form(k):
        return stack.form(h, k, u)

    unit_odd = sum(form(2 * k + 1) / math.factorial(2 * k - 1) for k in range(1, p // 2 + 1))
    bound = sum(
        form(2 * k) / (math.factorial(2 * k - 2) * xi ** (p - 2 * k)) for k in range(1, p // 2 + 1)
    ) + xi * m * abs(h[0]) ** (p - 1) / math.factorial(p - 1)
    assert abs(unit_odd) - bound == pytest.approx(6.0, abs=1e-12)
    derived = _odd_bracket_violation(stack, y, x, u, p, m, xi)
    assert derived == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_bracket_segments_stay_where_the_bounds_hold(seed):
    # the odd bracket assumes M on the segment y +- 2h; neglog-sep declares
    # its M on its box, and most raw sample pairs leave it
    prob = get_problem("neglog-sep")
    lo, hi = prob.m_box
    rng = np.random.default_rng(seed)
    y = prob.sample(rng, 1)[0]
    xs = prob.sample(rng, 1000)

    def leaves(points):
        h = points - y
        ends = np.concatenate([y + 2.0 * h, y - 2.0 * h])
        # one rounding of y + 2h may pass an end of the box by an ulp
        slack = 2.0 * np.spacing(np.maximum(abs(lo), abs(hi)))
        return np.any((ends < lo - slack) | (ends > hi + slack), axis=1)

    assert leaves(xs).mean() > 0.5
    assert not leaves(_segment_points(prob, y, xs)).any()
    # where the bounds hold everywhere the samples are used as drawn
    logistic = get_problem("logistic-sep-3d")
    drawn = logistic.sample(rng, 10)
    assert logistic.m_box is None
    assert _segment_points(logistic, drawn[0], drawn) is drawn


@pytest.mark.parametrize("seed", range(5))
def test_sandwich_suite_holds_across_seeds(seed, suite_rows):
    # seed 0 at the suite's own pair count, as `hiprox verify sandwich` runs it
    results = suite_rows("sandwich") if seed == 0 else suite_sandwich(seed, pairs=200)
    failed = [r.line() for r in results if not r.passed]
    assert not failed, "\n".join(failed)
    names = {r.name for r in results}
    for name, _desc in list_problems():
        for row in ("values (p=3)", "rho hessian psd", "odd bracket (p=3,4,5)"):
            assert "%s %s" % (name, row) in names
    for name in ("ball-quadratic", "neglog-sep", "logistic-sep-3d"):
        for p in (4, 5):
            assert "%s values (p=%d)" % (name, p) in names
            assert "%s hessians (p=%d)" % (name, p) in names


@pytest.mark.parametrize("seed", range(5))
def test_bregman_suite_holds_across_seeds(seed, suite_rows):
    results = suite_rows("bregman", seed)
    failed = [r.line() for r in results if not r.passed]
    assert not failed, "\n".join(failed)
    # signed margins: a row that holds with room reports a negative number
    margins = {r.name: r.violation for r in results}
    assert "iteration log fit" in margins
    for name in ("Bregman nonnegativity", "inner descent inequality", "inner contraction",
                 "inner descent from a seeded z0", "inner contraction from a seeded z0",
                 "residual decay (measured C)"):
        assert margins[name] < 0.0


# rows that hold with equality in exact arithmetic, so their signed margin is
# rounding of either sign: an exact prox at beta = 0 meets the accepted-pair
# triple with equality, and the quartic's Taylor gradient error equals its bound
_TIGHT_ROWS = {"quartic-1d exact prox", "quartic-abs-1d exact prox",
               "linear-nonneg-1d exact prox", "model gradient bound"}


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("suite", ["lemma1", "estseq", "theta", "tensor"])
def test_suite_reports_signed_margins_across_seeds(suite, seed, suite_rows):
    results = suite_rows(suite, seed)
    failed = [r.line() for r in results if not r.passed]
    assert not failed, "\n".join(failed)
    for r in results:
        assert np.isfinite(r.violation), r.line()
        if r.name not in _TIGHT_ROWS:
            assert r.violation < 0.0, r.line()


# rows that ran on a fixed grid, run or anchor before their draws were seeded
_SEEDED_ROWS = {"estseq": ("key inequality A_k F(x_k) <= Psi_k*", "coefficient growth",
                           "minimizer distance bound", "coefficient growth at H_k (relative)",
                           "adaptive key inequality at H_k", "adaptive sandwich upper",
                           "adaptive sandwich lower", "adaptive certificates at H_k"),
                "tensor": ("model subdifferential monotone", "criterion region maps to acceptance",
                           "target-beta map acceptance", "exact step criterion + acceptance",
                           "logistic-sep-3d accelerated tensor steps")}


@pytest.mark.parametrize("suite", sorted(_SEEDED_ROWS))
def test_seeded_rows_move_with_the_seed(suite, suite_rows):
    # each seed checks these rows on its own draws, each with room
    margins = {}
    for seed in range(5):
        for r in suite_rows(suite, seed):
            margins.setdefault(r.name, []).append(r.violation)
    for name in _SEEDED_ROWS[suite]:
        assert len(set(margins[name])) == 5, (name, margins[name])
        assert max(margins[name]) < 0.0, (name, margins[name])


def test_run_suite_refuses_an_unknown_name():
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        run_suite("nope")
