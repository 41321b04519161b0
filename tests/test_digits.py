"""Digits guard: the catalog's bi-level CSVs, byte for byte.

The hashes are sha256 of ``biopt_run(problem, p, eps=1e-6, max_k=200).to_csv()``
for the cells the benchmark's catalog workloads solve (every catalog problem
with a finite M_{p+1} at p = 3; neglog-sep, logistic-sep-3d and
ball-quadratic at p = 4 and 5), on x86-64 with numpy's OpenBLAS and one BLAS
thread. A speed-up keeps every digit. A change that moves digits on purpose
records the new hashes here and says why in CHANGES.md.
"""

import hashlib

import pytest

from hiprox import biopt_run, get_problem

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
