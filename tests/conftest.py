"""One BLAS / OpenMP thread for the whole suite, set before numpy is first imported.

Summation order in a threaded BLAS call depends on the thread count, so with
two threads ``neglog-box-100``'s CSV has other digits (same iteration counts)
than with one. The digit pins in ``test_digits.py`` are recorded with one
thread, as ``bench/run.py`` runs, so they must not depend on the runner's
core count.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import pytest  # noqa: E402


@pytest.fixture
def residual_passes(monkeypatch):
    """A list that grows by one at each ``SeparableObjective.residuals`` call, of any oracle."""
    from hiprox import SeparableObjective

    passes = []
    residuals = SeparableObjective.residuals
    monkeypatch.setattr(SeparableObjective, "residuals",
                        lambda oracle, x: passes.append(1) or residuals(oracle, x))
    return passes
