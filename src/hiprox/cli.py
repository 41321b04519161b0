"""Command-line experiment runner.

Subcommands:

    run            execute one solver configuration, write trace artifacts
    verify         run a seeded property suite, print per-check violations
    rates          compare (problem, mode, p) combinations in one table
    list-problems  show the catalog

`run` writes outer.csv, inner_k<k>.csv (when the run used the Bregman inner
loop), summary.json, and scan.csv for the two example modes, which scan
their grid through ``bregman.candidates`` (example1 over f_reg, example2
over the augmented Taylor model). Exit codes:
0 converged / clean finish, 1 bad configuration or unknown problem,
2 iteration limit, 3 numerical failure. Identical configs produce
byte-identical CSVs: every trace and scan CSV goes through one writer,
``inner.csv_text``, which serializes floats with repr.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .acceptance import ProxConfig, acceptable_interval_1d, check_acceptable
from .bregman import RegularizedObjective, bilevel_h, candidates
from .errors import CertificateError, NumericalError, ParameterError
from .inner import csv_text
from .outer import (
    aihopp_run,
    biopt_run,
    exact_prox_provider,
    ihopp_run,
    inner_prox_provider,
)
from .problems import get_problem, list_problems
from .tensor import TaylorModel, tensor_acceptance_map, tensor_criterion
from .verify import SUITES, run_suite

_MODES = ("plain", "accelerated", "bilevel", "example1", "example2")
# the example modes run one fixed instance each; the solver modes default to this one
_DEFAULT_PROBLEM = "quartic-abs-1d"
_EXAMPLE_PROBLEMS = {"example1": "linear-nonneg-1d", "example2": "quartic-abs-1d"}


@dataclass
class RunConfig:
    problem: str = None  # None: the mode's own problem
    mode: str = "plain"
    p: int = 3
    beta: float = None
    h: float = None
    m: float = None
    eps: float = 1e-8
    max_outer: int = 100
    out: str = None

    def __post_init__(self):
        if self.problem is None:
            self.problem = _EXAMPLE_PROBLEMS.get(self.mode, _DEFAULT_PROBLEM)

    def validate(self):
        if self.mode not in _MODES:
            raise ValueError("unknown mode %r (choose from %s)" % (self.mode, ", ".join(_MODES)))
        if self.mode == "bilevel" and self.h is not None:
            raise ValueError("bilevel mode derives H from M; drop the explicit H")
        if self.mode == "bilevel" and self.beta is not None:
            raise ValueError("bilevel mode runs at beta = 1/p; drop the explicit beta")
        if self.p < 2:
            raise ValueError("p must be at least 2")
        if self.max_outer < 1:
            raise ValueError("max_outer must be at least 1")
        if np.isnan(self.eps):
            # gap <= nan never holds, so every run would end at max_outer
            raise ValueError("eps must be a number, not nan")
        if self.mode in _EXAMPLE_PROBLEMS:
            own = _EXAMPLE_PROBLEMS[self.mode]
            if self.problem != own:
                raise ValueError("%s scans %s; drop --problem %s" % (self.mode, own, self.problem))
            if self.p != 3:
                raise ValueError("%s runs at p = 3; drop --p %d" % (self.mode, self.p))
            if self.mode == "example1" and self.m is not None:
                raise ValueError("example1 takes no M; drop --m")
            if self.mode == "example2" and self.h is not None:
                raise ValueError("example2 derives H from M and beta; drop --h")
        return self


_CONFIG_FIELDS = set(RunConfig().__dict__)
# the JSON values each field takes, by its annotation (a string: annotations are
# postponed in this module); true and false are not ints here
_JSON_TYPES = {"int": int, "float": (int, float), "str": str}


def load_config(path, overrides):
    """Flat JSON config file plus command-line overrides.

    ValueError for a file that cannot be read, is not one JSON object, or
    holds an unknown key or a value of another type than its field's (null
    only where the default is None).
    """
    data = {}
    if path is not None:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ValueError("cannot read config file: %s" % exc) from None
        if not isinstance(data, dict):
            raise ValueError("config file %s is not a JSON object" % path)
        unknown = set(data) - _CONFIG_FIELDS
        if unknown:
            raise ValueError("unknown config keys: %s" % ", ".join(sorted(unknown)))
        for field in fields(RunConfig):
            value = data.get(field.name, field.default)
            if (value is not None or field.default is not None) and (
                    isinstance(value, bool) or not isinstance(value, _JSON_TYPES[field.type])):
                raise ValueError("config key %r must be of type %s, not %s"
                                 % (field.name, field.type, json.dumps(value)))
    data.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**data).validate()


def _json_safe(value):
    if isinstance(value, float) and not np.isfinite(value):
        return None
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def _write_json(path, payload):
    payload = {k: _json_safe(v) for k, v in payload.items()}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _outdir(cfg):
    """The run's directory, without the CSVs an earlier run left there.

    Only the names ``run`` writes are removed (outer.csv, scan.csv,
    inner_k<k>.csv); summary.json is overwritten, and other files stay.
    """
    name = cfg.out or "runs/%s-%s-p%d" % (cfg.problem, cfg.mode, cfg.p)
    out = Path(name)
    out.mkdir(parents=True, exist_ok=True)
    for path in out.glob("*.csv"):
        if re.fullmatch(r"outer|scan|inner_k[0-9]+", path.stem):
            path.unlink()
    return out


def _write_trace(cfg, trace, calls_by_order, out):
    (out / "outer.csv").write_text(trace.to_csv())
    for k, itrace in enumerate(trace.inner_traces, start=1):
        if itrace is not None:
            (out / ("inner_k%d.csv" % k)).write_text(itrace.to_csv())
    summary = dict(trace.summary())
    summary.update(
        problem=cfg.problem,
        eps=cfg.eps,
        max_outer=cfg.max_outer,
        # oracle evaluations by derivative order (counted from the run's start)
        calls_by_order={str(k): v for k, v in sorted(calls_by_order.items())},
        # accelerated steps that kept x_k because F(T_k) > F(x_k)
        fallbacks=int(sum(trace.aux.get("fallback", []))),
    )
    _write_json(out / "summary.json", summary)


def _solve(cfg, prob):
    """The outer trace of one plain, accelerated or bi-level run of prob.

    --m reaches every mode as the problem's M_{p+1} (``prob.m_override``).
    Bi-level derives H from M; the other modes take H = --h when given.
    """
    p = cfg.p
    prob.oracle.reset_counters()
    if cfg.m is not None:
        prob.m_override[p + 1] = float(cfg.m)
    if cfg.mode == "bilevel":
        return biopt_run(prob, p, eps=cfg.eps, max_k=cfg.max_outer)
    beta = cfg.beta if cfg.beta is not None else 1.0 / p
    m = prob.m_next(p)
    m_positive = bool(np.isfinite(m) and m > 0)
    if prob.dimension > 1 and not m_positive:
        # the inner loop's relative constants need M whatever H is
        raise ParameterError(
            "%s has M_%d = %r at p = %d, but its Bregman inner loop derives its "
            "relative constants from M; pass a finite positive --m" % (prob.name, p + 1, m, p)
        )
    h = cfg.h
    if h is None:
        if not m_positive:
            raise ParameterError(
                "%s declares M_%d = %r at p = %d, so H cannot be derived from it; "
                "pass --h (or a finite positive --m)" % (prob.name, p + 1, m, p)
            )
        h = bilevel_h(p, m)
    pcfg = ProxConfig(p, h, beta)
    if prob.dimension == 1:
        provider = exact_prox_provider(prob.oracle, prob.term, pcfg)
    else:
        provider = inner_prox_provider(prob.oracle, prob.term, pcfg, m)
    runner = ihopp_run if cfg.mode == "plain" else aihopp_run
    return runner(prob, pcfg, provider, eps=cfg.eps, max_k=cfg.max_outer)


def run_command(cfg):
    if cfg.mode == "example1":
        return _run_example1(cfg)
    if cfg.mode == "example2":
        return _run_example2(cfg)
    prob = get_problem(cfg.problem)
    trace = _solve(cfg, prob)
    out = _outdir(cfg)
    _write_trace(cfg, trace, prob.oracle.calls_by_order, out)
    print("%s: status=%s iterations=%d final_gap=%s" % (
        out, trace.status, trace.rows[-1].k, repr(trace.rows[-1].gap)))
    return 0 if trace.status == "converged" else 2


def _run_example1(cfg):
    """Acceptance-region scan for f(x) = x on the nonnegative ray, p = 3."""
    prob = get_problem(cfg.problem)
    beta = cfg.beta if cfg.beta is not None else 0.85
    h = cfg.h if cfg.h is not None else 1.0
    pcfg = ProxConfig(3, h, beta)
    out = _outdir(cfg)
    anchors = (0.6, 1.4)
    rows = []
    endpoints = {}
    grid = np.arange(0.0, 2.5 + 1e-12, 1e-4)[:, None]
    for anchor in anchors:
        av = np.array([anchor])
        reg = RegularizedObjective(prob.oracle, av, 3, h)
        for point, g, (at, _) in candidates(reg, prob.term, grid):
            cert = check_acceptable(prob.oracle, prob.term, pcfg, av, point, g,
                                    power=(at[3], at[5]))
            rows.append((anchor, point[0], g[0], cert.lhs, cert.rhs, int(cert.accepted)))
        interval = acceptable_interval_1d(pcfg, anchor)
        endpoints["anchor=%s" % repr(float(anchor))] = list(interval) if interval else None
    columns = ("anchor", "point", "subgradient", "lhs", "rhs", "accepted")
    (out / "scan.csv").write_text(csv_text(columns, rows))
    summary = {"mode": "example1", "p": 3, "h": h, "beta": beta}
    summary.update(endpoints)
    _write_json(out / "summary.json", summary)
    print("%s: wrote scan.csv (%d rows)" % (out, len(rows)))
    return 0


def _run_example2(cfg):
    """Tensor-step criterion scan for f(x) = x^4 + |x| at x = 0.8, p = 3."""
    prob = get_problem(cfg.problem)
    gamma = 8.0 / 19.0
    beta = cfg.beta if cfg.beta is not None else 0.9
    m4 = cfg.m if cfg.m is not None else prob.m_next(3)
    m, h = tensor_acceptance_map(3, beta, gamma, m4)
    pcfg = ProxConfig(3, h, beta)
    anchor = np.array([0.8])
    tm = TaylorModel(prob.oracle, anchor, 3, m)
    out = _outdir(cfg)
    rows = []
    n_pass = n_accept = 0
    for point, g, at in candidates(tm, prob.term, np.linspace(-1.0, 1.5, 2001)[:, None]):
        ok, lhs, rhs = tensor_criterion(at, g, gamma)
        # the model's power term is the certificate's: same anchor and p
        cert = check_acceptable(prob.oracle, prob.term, pcfg, anchor, point, g,
                                power=(at[0][3], at[0][5]))
        n_pass += int(ok)
        n_accept += int(ok and cert.accepted)
        rows.append((point[0], g[0], lhs, rhs, int(ok), cert.lhs, cert.rhs, int(cert.accepted)))
    columns = ("point", "subgradient", "crit_lhs", "crit_rhs", "criterion_ok", "cert_lhs",
               "cert_rhs", "accepted")
    (out / "scan.csv").write_text(csv_text(columns, rows))
    _write_json(
        out / "summary.json",
        {
            "mode": "example2",
            "p": 3,
            "gamma": gamma,
            "beta": beta,
            "m_scaled": m,
            "h": h,
            "criterion_passing": n_pass,
            "accepted_of_passing": n_accept,
        },
    )
    print("%s: criterion passes %d points, %d accepted" % (out, n_pass, n_accept))
    return 0


def rates_command(args):
    problems = args.problems.split(",")
    modes = args.modes.split(",")
    ps = [int(s) for s in args.p.split(",")]
    levels = (1e-2, 1e-4, 1e-6)
    header = ["problem", "mode", "p", "it_1e-2", "it_1e-4", "it_1e-6", "slope", "bound_ok"]
    table = [header]
    for name in problems:
        for mode in modes:
            for p in ps:
                table.append(_rate_row(name, mode, p, levels, args.max_outer))
    widths = [max(len(row[j]) for row in table) for j in range(len(header))]
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "rates.csv").write_text("\n".join(",".join(r) for r in table) + "\n")
    return 0


def _rate_row(name, mode, p, levels, max_outer):
    """One table row: N/A in every column without f* or a finite positive M_{p+1}."""
    prob = get_problem(name)
    if prob.f_star is None or not 0.0 < prob.m_next(p) < np.inf:
        return [name, mode, str(p), "N/A", "N/A", "N/A", "N/A", "N/A"]
    cfg = RunConfig(problem=name, mode=mode, p=p, eps=min(levels),
                    max_outer=max_outer).validate()
    trace = _solve(cfg, prob)
    ks = trace.column("k")
    gaps = trace.column("gap")
    bounds = trace.column("bound_rhs")
    cells = [name, mode, str(p)]
    for level in levels:
        hit = ks[(gaps <= level)]
        cells.append(str(int(hit[0])) if hit.size else "-")
    slope = trace.fitted_slope()
    cells.append("%.2f" % slope if np.isfinite(slope) else "-")
    mask = (ks >= 1) & np.isfinite(bounds)
    if mask.any():
        cells.append("yes" if bool(np.all(gaps[mask] <= bounds[mask] + 1e-8)) else "no")
    else:
        cells.append("n/a")
    return cells


def verify_command(args):
    results = run_suite(args.suite, seed=args.seed)
    for r in results:
        print(r.line())
    return 0 if all(r.passed for r in results) else 1


def build_parser():
    class Parser(argparse.ArgumentParser):
        def error(self, message):  # keep exit 2 reserved for iteration limits
            self.exit(1, "%s: error: %s\n" % (self.prog, message))

    parser = Parser(prog="hiprox", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one solver configuration")
    p_run.add_argument("--config", help="flat JSON config file")
    p_run.add_argument("--problem")
    p_run.add_argument("--mode", choices=_MODES)
    p_run.add_argument("--p", type=int)
    p_run.add_argument("--beta", type=float)
    p_run.add_argument("--h", type=float)
    p_run.add_argument("--m", type=float)
    p_run.add_argument("--eps", type=float)
    p_run.add_argument("--max-outer", type=int, dest="max_outer")
    p_run.add_argument("--out")
    p_run.add_argument("--print-config", action="store_true")

    p_verify = sub.add_parser("verify", help="run a seeded property suite")
    p_verify.add_argument("suite", choices=(*SUITES, "all"))
    p_verify.add_argument("--seed", type=int, default=0)

    p_rates = sub.add_parser("rates", help="compare problems/modes/p in one table")
    p_rates.add_argument("--problems", default="quartic-1d")
    p_rates.add_argument("--modes", default="plain,accelerated")
    p_rates.add_argument("--p", default="3")
    p_rates.add_argument("--max-outer", type=int, default=300, dest="max_outer")
    p_rates.add_argument("--out")

    sub.add_parser("list-problems", help="show the catalog")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            overrides = {
                key: getattr(args, key)
                for key in _CONFIG_FIELDS
                if hasattr(args, key)
            }
            cfg = load_config(args.config, overrides)
            if args.print_config:
                print(json.dumps(asdict(cfg), indent=2, sort_keys=True))
                return 0
            return run_command(cfg)
        if args.command == "verify":
            return verify_command(args)
        if args.command == "rates":
            return rates_command(args)
        for name, description in list_problems():
            print("%-18s %s" % (name, description))
        return 0
    except (NumericalError, CertificateError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3
    except (ValueError, NotImplementedError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
