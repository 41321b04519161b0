#!/usr/bin/env python3
"""hiprox benchmark: time to a certified solution of ``biopt_run`` on four workloads.

Run from the repository root:

    python3 bench/run.py                     # every workload, both modes, as tables
    python3 bench/run.py --out bench/BASELINE.json
    python3 bench/run.py --workload box-scale --seed 3 --seconds 10 --trace 0

With ``--workload``, one process builds the workload's problems from the
seed, solves them one after another for about ``--seconds``, checks every
answer, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
It exits with 1 when a solve reports success with a wrong answer. Details
are in bench/NOTES.md; per-run reports and spans go to .bench_out/.
"""

import os

# one BLAS / OpenMP thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
if not (ROOT / "src" / "hiprox" / "__init__.py").is_file():
    sys.exit("bench/run.py: no src/hiprox in %s to benchmark" % ROOT)
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from hiprox import outer  # noqa: E402

import workloads as wl  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

# set-up is timed in batches spread over the run, so that its median does not
# depend on how fast the machine happened to be at one moment
SETUP_BATCH = 7
# a traced solve is stopped at this many times the limit, so that tracing
# stops no solve that finishes untraced; one stopped untraced stops at the limit
TRACE_LIMIT_FACTOR = 3


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(workload, seed, times):
    """Build the workload's cells SETUP_BATCH times, appending each time to times."""
    for _ in range(SETUP_BATCH):
        rng = np.random.default_rng(seed)
        start = time.perf_counter()
        cells = workload.build(rng)
        times.append(time.perf_counter() - start)
    return cells


class SolveTimeout(BaseException):
    """Raised by SIGALRM when a solve reaches its workload's time limit."""


def _on_alarm(signum, frame):
    raise SolveTimeout()


def solve(cell, limit_s, stop_s):
    """One timed biopt_run, stopped at stop_s; returns its outcome record."""
    problem = cell.problem
    problem.oracle.reset_counters()
    trace = status = detail = None
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, stop_s)
        try:
            trace = outer.biopt_run(problem, cell.p, eps=cell.eps, max_k=wl.OUTER_BUDGET,
                                    rhs_tol=cell.rhs_tol)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except SolveTimeout:
        trace, status, detail = None, "timeout", "stopped at %g s" % stop_s
    except Exception as exc:  # a raised solve is a measured failure, not a crash
        status, detail = "error", "%s: %s" % (type(exc).__name__, exc)
    elapsed = time.perf_counter() - start
    evals = {str(k): int(v) for k, v in sorted(problem.oracle.calls_by_order.items())}
    if status is None:
        status = trace.status
        if status == "converged":
            detail = wl.check_answer(cell, trace)
            status = "wrong" if detail else status
    ok = status == "converged"
    outer_steps = trace.rows[-1].k if trace is not None else None
    return {
        "label": cell.label,
        "status": status,
        "detail": detail,
        "wall_s": elapsed,
        # a failure costs the limit, or the measured time when it was stopped there
        "charge_s": elapsed if ok else max(limit_s, elapsed),
        "outer": outer_steps,
        "charge_outer": outer_steps if ok else wl.OUTER_BUDGET,
        "inner": trace.inner_total if trace is not None else None,
        "fallbacks": int(sum(trace.aux.get("fallback", []))) if trace is not None else 0,
        "evals": evals,
        "csv_sha256": hashlib.sha256(trace.to_csv().encode()).hexdigest() if trace else None,
    }


FINGERPRINT = ("status", "detail", "outer", "inner", "evals", "csv_sha256")


def fingerprint(record):
    return {key: record[key] for key in FINGERPRINT}


def run_pass(cells, limit_s, stops, tracer=None):
    records = []
    for i, (cell, stop_s) in enumerate(zip(cells, stops)):
        if tracer is not None:
            tracer.begin_solve(i)
        records.append(solve(cell, limit_s, stop_s))
    for r in records:
        log("  %-24s %-9s %7.3f s  outer %-4s inner %-5s %s"
            % (r["label"], r["status"], r["wall_s"], r["outer"], r["inner"], r["detail"] or ""))
    evals = {}
    for r in records:
        for order, count in r["evals"].items():
            evals[order] = evals.get(order, 0) + count
    return {
        "records": records,
        "solve_s": sum(r["charge_s"] for r in records),
        "outer_iters": sum(r["charge_outer"] for r in records),
        "wall_s": sum(r["wall_s"] for r in records),
        "evals": evals,
        "fallbacks": sum(r["fallbacks"] for r in records),
    }


def check_repeats(workload, seed, passes):
    """Names of solves whose fingerprint differs between passes or from an earlier run."""
    first = {}
    unsteady = set()
    for p in passes:
        for r in p["records"]:
            if r["status"] == "timeout":  # stopped by the clock, so not repeatable
                continue
            if first.setdefault(r["label"], fingerprint(r)) != fingerprint(r):
                unsteady.add(r["label"])
    path = OUT / "fingerprints" / ("%s-seed%d.json" % (workload, seed))
    earlier = json.loads(path.read_text()) if path.exists() else {}
    unsteady.update(label for label, fp in first.items() if earlier.setdefault(label, fp) != fp)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(earlier, indent=1, sort_keys=True))
    for label in sorted(unsteady):
        log("UNSTEADY: %s differs between passes or runs of %s seed %d" % (label, workload, seed))
    return sorted(unsteady)


def run_workload(name, seed, seconds, traced):
    workload = wl.WORKLOADS[name]
    signal.signal(signal.SIGALRM, _on_alarm)
    setup_times = []
    cells = build(workload, seed, setup_times)
    wl.add_references(cells)
    tracer = Tracer() if traced else None
    build_s = None
    if traced:
        tracer.install()
        try:
            start = time.perf_counter()
            tracer.root("problems.build", workload.build, np.random.default_rng(seed))
            build_s = time.perf_counter() - start
        finally:
            tracer.uninstall()
        tracer.take_pass()

    plain, traced_passes, tallies = [], [], []
    start = time.perf_counter()
    while True:
        log("%s seed %d pass %d" % (name, seed, len(plain)))
        limit = workload.limit_s
        plain.append(run_pass(cells, limit, [limit] * len(cells)))
        if traced:
            log("%s seed %d traced pass" % (name, seed))
            stops = [limit if r["status"] == "timeout" else TRACE_LIMIT_FACTOR * limit
                     for r in plain[-1]["records"]]
            tracer.install()
            try:
                traced_passes.append(run_pass(cells, limit, stops, tracer))
            finally:
                tracer.uninstall()
            tallies.append(tracer.take_pass())
        build(workload, seed, setup_times)
        elapsed = time.perf_counter() - start
        # stop before a further round would end after the run's time
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            break
    peak_mem_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    passes = plain + traced_passes
    records = [r for p in passes for r in p["records"]]
    wrong = [r for r in records if r["status"] == "wrong"]
    failed = sum(r["status"] != "converged" for r in records)
    unsteady = check_repeats(name, seed, passes)

    OUT.mkdir(exist_ok=True)
    if traced:
        def cost_per_eval(p):
            return p["wall_s"] / max(1, sum(p["evals"].values()))

        overhead = (statistics.median(cost_per_eval(p) for p in traced_passes)
                    / statistics.median(cost_per_eval(p) for p in plain) - 1.0)
        per_pass = [layer_metrics(tally, p["fallbacks"], p["evals"], build_s, overhead)
                    for tally, p in zip(tallies, traced_passes)]
        metrics = {key: {"value": statistics.median(m[key][0] for m in per_pass),
                         "unit": unit} for key, (_, unit) in per_pass[0].items()}
        tracer.save(OUT / ("%s-seed%d-spans.npz" % (name, seed)))
    else:
        metrics = {
            "solve_s": {"value": statistics.median(p["solve_s"] for p in plain), "unit": "s"},
            "outer_iters": {"value": statistics.median(p["outer_iters"] for p in plain),
                            "unit": "count"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_mem_mb": {"value": peak_mem_mb, "unit": "MB"},
        }
    result = {"correct": not wrong, "attempted": len(records), "failed": failed,
              "metrics": metrics}
    report = dict(result, workload=name, seed=seed, seconds=seconds, trace=int(traced),
                  limit_s=workload.limit_s, unsteady=unsteady, passes=passes)
    (OUT / ("%s-seed%d-trace%d.json" % (name, seed, int(traced)))).write_text(
        json.dumps(report, indent=1, sort_keys=True))
    return result


def environment():
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
        "cpu": _cpu_model(),
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            return next((line.split(":", 1)[1].strip() for line in f
                         if line.startswith("model name")), platform.processor())
    except OSError:
        return platform.processor()


def run_all(args):
    """Every workload in a fresh process per mode; print tables; optionally save them."""
    modes = [args.trace] if args.trace is not None else [0, 1]
    summary = {"environment": environment(), "seed": args.seed, "seconds": args.seconds,
               "results": {}}
    ok = True
    for name in wl.WORKLOADS:
        summary["results"][name] = {}
        for mode in modes:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(mode)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if not lines:
                raise SystemExit("%s --trace %d gave no result (exit %d)"
                                 % (name, mode, proc.returncode))
            ok = ok and proc.returncode == 0
            result = json.loads(lines[-1])
            result["fail_frac"] = result["failed"] / result["attempted"]
            summary["results"][name]["trace%d" % mode] = result
    for mode in modes:
        print("\n%s metrics (seed %d, %g s per run)"
              % ("end-to-end" if mode == 0 else "per-layer", args.seed, args.seconds))
        keys = list(next(iter(summary["results"].values()))["trace%d" % mode]["metrics"])
        print("%-44s" % "metric" + "".join("%16s" % n for n in wl.WORKLOADS))
        for key in keys + ["fail_frac", "correct"]:
            cells, unit = [], ""
            for name in wl.WORKLOADS:
                res = summary["results"][name]["trace%d" % mode]
                if key in res["metrics"]:
                    value, unit = res["metrics"][key]["value"], res["metrics"][key]["unit"]
                else:
                    value, unit = res[key], "ratio" if key == "fail_frac" else ""
                cells.append("%16s" % (("%.6g" % value) if not isinstance(value, bool) else value))
            print("%-44s" % ("%s (%s)" % (key, unit) if unit else key) + "".join(cells))
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all"] + list(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--out", help="with --workload all: write the results and environment here")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
