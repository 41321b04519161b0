"""One BLAS / OpenMP thread for the whole suite, set before numpy is first imported.

Summation order in a threaded BLAS call depends on the thread count, so with
two threads ``neglog-box-100``'s CSV has other digits (same iteration counts)
than with one. The digit pins in ``test_digits.py`` are recorded with one
thread, as ``bench/run.py`` runs, so they must not depend on the runner's
core count.

The session fixtures below run an example scan or a property suite, or load
a bench module, once for every test that reads it.
"""

import functools
import importlib.util
import os
import sys
from pathlib import Path

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


@pytest.fixture
def cold_catalog(monkeypatch):
    """An empty template store, so the test's first build of each catalog problem runs its builder,
    reference solve included, again."""
    from hiprox import problems

    monkeypatch.setattr(problems, "_TEMPLATES", {})


@pytest.fixture(scope="session")
def example_run(tmp_path_factory):
    """``example_run(mode)``: the directory of ``hiprox run --mode <mode>``, run once a session."""
    from hiprox.cli import main

    @functools.cache
    def run(mode):
        out = tmp_path_factory.mktemp(mode)
        assert main(["run", "--mode", mode, "--out", str(out)]) == 0
        return out

    return run


@pytest.fixture(scope="session")
def suite_rows():
    """``suite_rows(name, seed=0)``: a suite's rows, each (name, seed) run once a session."""
    from hiprox.verify import run_suite

    return functools.cache(lambda name, seed=0: tuple(run_suite(name, seed)))


@pytest.fixture(scope="session")
def bench_module():
    """``bench_module(name)``: ``bench/<name>.py``, loaded once a session as ``bench_<name>``."""

    @functools.cache
    def load(name):
        path = Path(__file__).resolve().parents[1] / "bench" / (name + ".py")
        spec = importlib.util.spec_from_file_location("bench_" + name, path)
        module = importlib.util.module_from_spec(spec)
        # dataclasses resolve their annotations through sys.modules
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        return module

    return load
