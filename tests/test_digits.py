"""Digits guard: the bench's bi-level CSVs, byte for byte.

The hashes are sha256 of ``biopt_run(...).to_csv()``, on x86-64 with one BLAS
thread (``conftest.py`` sets it). Two OpenBLAS builds take part: numpy's
(0.3.31) runs everything numpy computes, and scipy's (0.3.30) runs the LAPACK
LU solve of every prox-Newton step (``scipy.linalg.lapack.dgesv``). A
speed-up keeps every digit. A change that moves digits on purpose records the
new hashes here and says why in CHANGES.md.

- The catalog cells of the benchmark's catalog workloads, at eps = 1e-6 and
  max_k = 200: every catalog problem with a finite M_{p+1} at p = 3, and
  neglog-sep, logistic-sep-3d and ball-quadratic at p = 4 and 5.
- The base instances of the two synthetic workloads, from the generators of
  ``bench/workloads.py`` at generator seed 0, solved at p = 3 to
  rhs_tol = 1e-4 with max_k = 200. Their iteration counts are pinned too, so
  a change of digits shows whether the work moved with them.
- The catalog's frozen data: each problem's x*, f* and M bounds, from its
  reference solver and its family's sup.
- The files the command line writes, which its docstring promises are
  byte-identical across runs: ``scan.csv`` of the two example modes, and
  ``outer.csv`` with every ``inner_k<k>.csv`` of a plain, an accelerated and
  a bi-level run of neglog-sep at p = 3, also when the bi-level run reuses
  the directory of a longer run.
"""

import hashlib

import pytest

from hiprox import biopt_run, get_problem, list_problems
from hiprox.cli import main

CSV_SHA256 = {
    ("ball-quadratic", 3): "c162cfb30e38dbfb555bea777cca716282524ed2434a9b7149f91e5790d84822",
    ("logistic-sep-3d", 3): "d752fd55a31dedd581b939bc00f2d6768e9e0d84d61d88c34dff520d75269370",
    ("neglog-sep", 3): "f9f8811d80bca86b5c8e8a2a8d307f2bffff746084ee58e05e0f86ce55ca8fc3",
    ("quartic-1d", 3): "e394befafc592b69b7db42a289bab1d107a7d59a949296f7c90c43586ac74503",
    ("quartic-abs-1d", 3): "725da53e22fcc3da1d03056461823172b89a44c885d135fce08d6438a2695068",
    ("quartic-sep-10d", 3): "e999397067716f76cf8dc27358af50c062e374beb463e338eb54d4212eeea0a6",
    ("ball-quadratic", 4): "276df67ad241bcf8e94f2f8c02611a7290f77bb676d37c4843872731e4c0408b",
    ("logistic-sep-3d", 4): "ab41ff3feef8e4815912b1b8b56f0bc48b1bbe3b21a0a0f49401952be28a8095",
    ("neglog-sep", 4): "fa6285b6212c498266558d3ef520715744345165801f46ec015c6dc79c268059",
    ("ball-quadratic", 5): "b1a21602c768649aff8eadf38854c6b47990a9138457b65034f5470b1f6732fa",
    ("logistic-sep-3d", 5): "97ddde57925ffa1741e0761438e09d101bd812a5a06baaa25638d19eb5ebc709",
    ("neglog-sep", 5): "89fff6f108eb0428ac694baf0d0696711e7b2958c5fbfab94c0b8b743491c169",
}


@pytest.mark.parametrize("name,p", list(CSV_SHA256))
def test_bilevel_csv_keeps_its_digits(name, p):
    trace = biopt_run(get_problem(name), p, eps=1e-6, max_k=200)
    assert trace.status == "converged"
    assert hashlib.sha256(trace.to_csv().encode()).hexdigest() == CSV_SHA256[(name, p)]


# sha256 of x* and f* (as float.hex) and the M bounds sorted by order; ball-quadratic's
# bounds hold its declared M_4 = M_5 = M_6 = 1 (its quadratic's own are 0)
CATALOG_SHA256 = {
    "ball-quadratic": "8a113f5959321154428cf70d51ec9dadc5bae2679123b697318449037e6acc07",
    "linear-nonneg-1d": "189fe81bd8cb2476f9509380643b6e1bb4b08d6155976c8b427bcfdc39114cab",
    "logistic-sep-3d": "2b15a63b4a111a83590c0dfbc63cbeb7fe15b915fd6ce2bc38413f538b2ad2c4",
    "neglog-sep": "06113fe84efb77cffc62296f0affce31b77d4452aad3254827232c6914020592",
    "quartic-1d": "5842216ac302ff79cc6f8d04805350c62607b1bab643eb06114ab67ded773171",
    "quartic-abs-1d": "15e2dcf42e3bb7216aa534113679546cfd7e8f1e682809f3f5fea0095e629f2c",
    "quartic-sep-10d": "e8e340e93517e5532d29ddfe7e13fe62cbc93941343a7fda6ff5b590710b4ba2",
}


def test_catalog_data_keeps_its_digits():
    assert sorted(CATALOG_SHA256) == [name for name, _ in list_problems()]
    for name, digest in CATALOG_SHA256.items():
        prob = get_problem(name)
        data = (repr([float(v).hex() for v in prob.x_star]), float(prob.f_star).hex(),
                repr([(k, float(v).hex()) for k, v in sorted(prob.oracle.m_bounds.items())]))
        assert hashlib.sha256("\n".join(data).encode()).hexdigest() == digest, name


# (outer steps, inner steps, prox-Newton iterations, sha256 of the CSV)
SYNTHETIC = {
    "neglog-box-100": (11, 20, 83,
                       "61da2f7c8efb138178e29470395082b4e73b464199255270fe04cac6f24c44f0"),
    "logistic-l1-10": (23, 41, 214,
                       "f9d8c58a946933de661fc5d4eaefd02d7f5fbf4ee011c9277005d9796a39937e"),
}


@pytest.mark.parametrize("name", list(SYNTHETIC))
def test_synthetic_csv_keeps_its_digits_and_counts(name, bench_module):
    wl = bench_module("workloads")
    make = {"neglog-box-100": lambda: wl.neglog_box(100, 0),
            "logistic-l1-10": lambda: wl.logistic_l1(10, 0)}[name]
    problem = make()
    assert problem.name == name
    trace = biopt_run(problem, 3, max_k=200, rhs_tol=1e-4)
    assert trace.status == "converged"
    counts = (trace.rows[-1].k, trace.inner_total, trace.summary()["newton_iters"])
    outer, inner, newton, digest = SYNTHETIC[name]
    assert counts == (outer, inner, newton)
    assert hashlib.sha256(trace.to_csv().encode()).hexdigest() == digest


# sha256 of scan.csv per example mode
SCAN_SHA256 = {
    "example1": "a6521f0bf8ff1547179f4748edef32e8f788033ea73fe59e12ac416405262631",
    "example2": "b679bf7d6481b013c0f531b897fac295d19f013665d9612b42f4c09c3588fc27",
}


@pytest.mark.parametrize("mode", list(SCAN_SHA256))
def test_cli_scan_keeps_its_bytes(mode, example_run):
    digest = hashlib.sha256((example_run(mode) / "scan.csv").read_bytes()).hexdigest()
    assert digest == SCAN_SHA256[mode]


# (inner_k*.csv files, sha256 of outer.csv, sha256 of the inner files in k order)
RUN_SHA256 = {
    "plain": (5, "ec97f125d0dff35ee6c788747db22c705edc9c0fd503f8911cc23c179ed76cd1",
              "e5d6dc503d6b9fc9930fb6ae660d8be2b1951d12d4a367c3980a3e348e3fae54"),
    "accelerated": (14, "32edda0c272ccb12db53606ed83cbd36ca5697258195ee6c68f8f9be44304953",
                    "6fd1d378fcb9ae11db4b9ad9f8fb02b57f8aadb17d78afc47806f3dd1684984b"),
    "bilevel": (7, "f9f8811d80bca86b5c8e8a2a8d307f2bffff746084ee58e05e0f86ce55ca8fc3",
                "dbd0ddfa9f8a8e382c43d5769ed159d222f1df52160b81f56a704d5cab91a3f4"),
}


@pytest.mark.parametrize("mode", list(RUN_SHA256))
def test_cli_run_keeps_its_bytes(mode, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--problem", "neglog-sep", "--mode", mode, "--eps", "1e-6",
                 "--max-outer", "100", "--out", "run"]) == 0
    out = tmp_path / "run"
    inner = sorted(out.glob("inner_k*.csv"), key=lambda path: int(path.stem[len("inner_k"):]))
    count, outer_digest, inner_digest = RUN_SHA256[mode]
    assert len(inner) == count
    assert hashlib.sha256((out / "outer.csv").read_bytes()).hexdigest() == outer_digest
    joined = b"".join(path.read_bytes() for path in inner)
    assert hashlib.sha256(joined).hexdigest() == inner_digest


def test_cli_run_replaces_an_earlier_runs_files(tmp_path, monkeypatch):
    # a longer run, a shorter one and a scan into one directory: each leaves
    # only its own files
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "run"
    assert main(["run", "--problem", "logistic-sep-3d", "--mode", "bilevel", "--p", "4",
                 "--eps", "1e-6", "--max-outer", "100", "--out", "run"]) == 0
    assert len(list(out.glob("inner_k*.csv"))) == 13
    assert main(["run", "--problem", "neglog-sep", "--mode", "bilevel", "--eps", "1e-6",
                 "--max-outer", "100", "--out", "run"]) == 0
    inner = sorted(out.glob("inner_k*.csv"), key=lambda path: int(path.stem[len("inner_k"):]))
    count, outer_digest, inner_digest = RUN_SHA256["bilevel"]
    assert len(inner) == count
    assert hashlib.sha256((out / "outer.csv").read_bytes()).hexdigest() == outer_digest
    joined = b"".join(path.read_bytes() for path in inner)
    assert hashlib.sha256(joined).hexdigest() == inner_digest
    assert main(["run", "--mode", "example2", "--out", "run"]) == 0
    assert sorted(path.name for path in out.iterdir()) == ["scan.csv", "summary.json"]
