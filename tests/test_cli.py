"""Command-line interface: artifacts, determinism, exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hiprox import (NumericalError, PowerProx, ProxConfig, RegularizedObjective, StepSolver,
                    TaylorModel, acceptable_interval_1d, candidates, check_acceptable,
                    get_problem, list_problems, relative_constants, verify)
from hiprox.cli import RunConfig, build_parser, load_config, main
from hiprox.problems import list_families

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def _in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_list_problems(capsys):
    assert main(["list-problems"]) == 0
    out = capsys.readouterr().out
    for name in ("quartic-1d", "neglog-sep", "ball-quadratic"):
        assert name in out


def test_run_plain_writes_artifacts(tmp_path):
    code = main(
        ["run", "--problem", "quartic-1d", "--mode", "plain", "--eps", "1e-6",
         "--max-outer", "200", "--out", "runA"]
    )
    assert code == 0
    outer = (tmp_path / "runA" / "outer.csv").read_text()
    summary = json.loads((tmp_path / "runA" / "summary.json").read_text())
    assert summary["status"] == "converged"
    assert summary["problem"] == "quartic-1d"
    assert summary["final_gap"] <= 1e-6
    assert outer.splitlines()[0] == "k,F,gap,bound_rhs,inner_iters,cert_lhs,cert_rhs"

    code = main(
        ["run", "--problem", "quartic-1d", "--mode", "plain", "--eps", "1e-6",
         "--max-outer", "200", "--out", "runB"]
    )
    assert code == 0
    assert (tmp_path / "runB" / "outer.csv").read_bytes() == (
        tmp_path / "runA" / "outer.csv"
    ).read_bytes()


def test_run_default_outdir(tmp_path):
    code = main(["run", "--problem", "quartic-1d", "--mode", "plain", "--eps", "1e-6",
                 "--max-outer", "200"])
    assert code == 0
    assert (tmp_path / "runs" / "quartic-1d-plain-p3" / "outer.csv").exists()


def test_run_bilevel_writes_inner_traces(tmp_path):
    code = main(
        ["run", "--problem", "neglog-sep", "--mode", "bilevel", "--p", "3",
         "--eps", "1e-6", "--max-outer", "100", "--out", "runC"]
    )
    assert code == 0
    assert (tmp_path / "runC" / "inner_k1.csv").exists()
    summary = json.loads((tmp_path / "runC" / "summary.json").read_text())
    assert summary["mode"] == "bilevel"
    assert summary["status"] == "converged"


def test_example1_scan(example_run):
    # the scan's labels against the closed-form window acceptable_interval_1d
    out = example_run("example1")
    lines = (out / "scan.csv").read_text().strip().split("\n")
    # header plus a 1e-4 grid on [0, 2.5] for each of the two anchors
    assert len(lines) == 1 + 2 * 25001
    assert lines[0] == "anchor,point,subgradient,lhs,rhs,accepted"
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["h"], summary["beta"]) == (1.0, 0.85)
    lo, hi = summary["anchor=1.4"]
    np.testing.assert_allclose(lo, 1.4 - 1.85 ** (1.0 / 3.0), rtol=1e-10)
    np.testing.assert_allclose(hi, 1.4 - 0.15 ** (1.0 / 3.0), rtol=1e-10)
    scan = np.loadtxt(out / "scan.csv", delimiter=",", skiprows=1)
    for anchor in (0.6, 1.4):
        lo, hi = acceptable_interval_1d(ProxConfig(3, 1.0, 0.85), anchor)
        accepted = scan[(scan[:, 0] == anchor) & (scan[:, 5] == 1), 1]
        # the accepted points end within a grid step of the closed form and
        # form one contiguous block of the 1e-4 grid
        assert abs(accepted[0] - lo) <= 1.01e-4 and abs(accepted[-1] - hi) <= 1.01e-4
        assert len(accepted) == int(round((accepted[-1] - accepted[0]) / 1e-4)) + 1


def test_example1_scan_forms_the_power_term_once_per_point(monkeypatch):
    # g and the certificate read one f_reg pass's (|d|, grad d) at each point
    # of the scan, here on a short grid
    calls = []
    terms = PowerProx._terms
    monkeypatch.setattr(PowerProx, "_terms", lambda pp, *args: calls.append(1) or terms(pp, *args))
    prob = get_problem("linear-nonneg-1d")
    anchor = np.array([1.4])
    reg = RegularizedObjective(prob.oracle, anchor, 3, 1.0)
    for point, g, at in candidates(reg, prob.term, np.linspace(0.0, 2.5, 26)[:, None]):
        check_acceptable(prob.oracle, prob.term, ProxConfig(3, 1.0, 0.85), anchor, point, g,
                         at=at)
    assert len(calls) == 26


def test_example2_scan(tmp_path, monkeypatch):
    # g, the criterion and the certificate read one Taylor model pass, and so
    # one power term, at each grid point
    passes, terms = [], []
    evaluate, power = TaylorModel.evaluate, PowerProx._terms
    monkeypatch.setattr(TaylorModel, "evaluate",
                        lambda tm, *args: passes.append(1) or evaluate(tm, *args))
    monkeypatch.setattr(PowerProx, "_terms", lambda pp, *args: terms.append(1) or power(pp, *args))
    assert main(["run", "--mode", "example2", "--out", "ex2"]) == 0
    assert (len(passes), len(terms)) == (2001, 2001)
    summary = json.loads((tmp_path / "ex2" / "summary.json").read_text())
    assert summary["criterion_passing"] > 0
    assert summary["accepted_of_passing"] == summary["criterion_passing"]
    np.testing.assert_allclose(summary["m_scaled"], 456.0)
    np.testing.assert_allclose(summary["h"], 76.0)
    lines = (tmp_path / "ex2" / "scan.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 2001


def test_verify_suite(capsys):
    assert main(["verify", "lemma1"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_all_runs_every_suite_in_order(monkeypatch, capsys):
    def stub(name, violation):
        return lambda seed: [verify.CheckResult(name, "stub", violation, 0.0)]

    names = list(verify.SUITES)
    monkeypatch.setattr(verify, "SUITES", {name: stub(name, 1.0 if name == "theta" else 0.0)
                                           for name in names})
    assert main(["verify", "all"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == names
    assert [line.endswith("FAIL") for line in lines] == [name == "theta" for name in names]
    monkeypatch.setattr(verify, "SUITES", {name: stub(name, 0.0) for name in names})
    assert main(["verify", "all"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6


def test_module_entry_point_lists_the_catalog():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "hiprox", "list-problems"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    names = [line.split()[0] for line in proc.stdout.splitlines()]
    assert names == [name for name, _ in list_problems() + list_families()]
    assert names[7:] == ["neglog-box-<n>", "logistic-l1-<n>"]
    assert len(names) == 9


def test_rates_table(capsys, tmp_path):
    # quartic-1d declares M_5 = 0, so its p = 4 row has no H: N/A, and the
    # other rows are still computed
    code = main(["rates", "--problems", "quartic-1d", "--modes", "plain",
                 "--p", "3,4", "--max-outer", "60", "--out", "r"])
    assert code == 0
    out = capsys.readouterr().out
    assert "bound_ok" in out and "yes" in out
    table = (tmp_path / "r" / "rates.csv").read_text().strip().split("\n")
    assert table[0].startswith("problem,mode,p,")
    assert len(table) == 3
    assert table[1].endswith(",yes")
    assert table[2] == "quartic-1d,plain,4" + ",N/A" * 5


def test_sized_family_runs_without_a_gap(tmp_path, capsys):
    # no f*: the gap is nan (null), so the run ends at --max-outer with exit 2
    code = main(["run", "--problem", "neglog-box-30", "--mode", "bilevel", "--max-outer", "5",
                 "--out", "box"])
    assert code == 2
    assert len((tmp_path / "box" / "outer.csv").read_text().splitlines()) == 7
    summary = json.loads((tmp_path / "box" / "summary.json").read_text())
    assert summary["problem"] == "neglog-box-30"
    assert summary["status"] == "max_iter" and summary["iterations"] == 5
    assert summary["final_gap"] is None
    capsys.readouterr()
    assert main(["rates", "--problems", "neglog-box-30", "--modes", "bilevel"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split()
    assert row == ["neglog-box-30", "bilevel", "3"] + ["N/A"] * 5


def test_print_config_and_precedence(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"problem": "quartic-1d", "eps": 1e-4, "p": 3}))
    code = main(["run", "--config", str(cfg_file), "--eps", "0.01", "--print-config"])
    assert code == 0
    shown = json.loads(capsys.readouterr().out)
    assert shown["problem"] == "quartic-1d"
    assert shown["eps"] == 0.01
    assert shown["mode"] == "plain"


def test_config_validation_exit_codes(capsys):
    # bilevel mode must derive H itself
    assert main(["run", "--mode", "bilevel", "--h", "3.0"]) == 1
    # p below the quadratic regularization floor
    assert main(["run", "--p", "1"]) == 1
    capsys.readouterr()
    # unknown problem name, also a family's name with a malformed size
    for name in ("nope", "neglog-box-0", "neglog-box-010", "logistic-l1-x"):
        assert main(["run", "--problem", name]) == 1
        assert capsys.readouterr().err == "error: unknown problem %r\n" % name
    # a run that may take no outer step
    for max_outer in ("-3", "0"):
        assert main(["run", "--max-outer", max_outer]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line == "error: max_outer must be at least 1"


@pytest.mark.parametrize("text, message", (
    (None, "No such file"), ("[1, 2]", "not a JSON object"),
    ('{"p": "3"}', "'p' must be of type int"), ('{"eps": "x"}', "'eps' must be of type float"),
    ('{"beta": "0.2"}', "'beta' must be"), ('{"max_outer": 2.5}', "'max_outer' must be"),
    ('{"p": true}', "'p' must be of type int, not true"),
    ('{"problem": "quartic-1d", "step_size": 0.1}', "unknown config keys: step_size"),
))
def test_bad_config_file_is_refused_in_one_line(text, message, tmp_path, capsys):
    # exit 1 with one "error:" line, refused before any run writes a file
    cfg_file = tmp_path / "cfg.json"
    if text is not None:
        cfg_file.write_text(text)
    out = tmp_path / "run"
    assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and message in line
    assert not out.exists()


@pytest.mark.parametrize("command", (
    ["run", "--problem", "quartic-1d", "--mode", "plain", "--max-outer", "20"],
    ["rates", "--problems", "quartic-1d", "--modes", "plain", "--p", "3", "--max-outer", "20"],
))
def test_an_out_that_cannot_be_a_directory_is_refused_in_one_line(command, tmp_path, capsys):
    # an --out naming an existing file: exit 1 with one "error:" line, no traceback
    out = tmp_path / "taken"
    out.write_text("kept\n")
    assert main(command + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    [line] = err.splitlines()
    assert line.startswith("error: ") and str(out) in line
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("h", ("nan", "inf"))
def test_non_finite_h_is_a_configuration_error(h, tmp_path, capsys):
    # a bad H is a configuration error (exit 1), refused before any solve
    # writes a file, not a numerical failure of the solve (exit 3)
    out = tmp_path / "run"
    args = ["run", "--problem", "quartic-1d", "--mode", "plain", "--h", h, "--out", str(out)]
    assert main(args) == 1
    assert "H must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ("flag", "config"))
def test_nan_eps_is_a_configuration_error(source, tmp_path, capsys):
    # gap <= nan never holds, so a nan eps would run to max_outer and exit 2;
    # it is refused before any solve writes a file, from the flag or the file
    out = tmp_path / "run"
    args = ["run", "--problem", "quartic-1d", "--mode", "plain", "--max-outer", "5",
            "--out", str(out)]
    if source == "flag":
        args += ["--eps", "nan"]
    else:
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"eps": float("nan")}))
        assert "NaN" in cfg_file.read_text()
        args += ["--config", str(cfg_file)]
    assert main(args) == 1
    assert "eps must be a number, not nan" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("eps", (-1.0, float("inf")))
def test_never_and_always_stopping_eps_stay_valid(eps):
    # eps = -1 never stops on the gap and eps = inf stops at the first check
    assert load_config(None, {"eps": eps}).eps == eps


@pytest.mark.parametrize(
    "mode, problem, p", (("plain", "ball-quadratic", 2), ("accelerated", "quartic-1d", 4))
)
def test_underivable_h_is_a_configuration_error(mode, problem, p, capsys):
    # M_{p+1} = 0 here (a quadratic at p = 2, a quartic at p = 4), so H has no
    # silent default. In dimension 1 the advice is --h; for n > 1 the inner
    # loop's relative constants need M as well, so the advice is --m and an
    # explicit --h alone is still a configuration error
    args = ["run", "--problem", problem, "--mode", mode, "--p", str(p)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "M_%d = 0.0" % (p + 1) in err
    if get_problem(problem).dimension == 1:
        assert "--h" in err
        return
    assert "--m" in err and "--h" not in err
    assert main(args + ["--h", "3.0"]) == 1
    err = capsys.readouterr().err
    assert "--m" in err and "--h" not in err and "M_%d = 0.0" % (p + 1) in err
    assert main(args + ["--m", "1.0"]) == 0
    capsys.readouterr()


def test_unknown_mode_is_a_parse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--mode", "steepest"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 1
    capsys.readouterr()


def test_iteration_limit_exit_code(capsys):
    code = main(["run", "--problem", "quartic-1d", "--mode", "plain",
                 "--eps", "1e-30", "--max-outer", "2"])
    assert code == 2
    capsys.readouterr()


def test_numerical_failure_exit_code(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise NumericalError("prox-Newton step residual 1.000e-06 > 1.0e-10")

    monkeypatch.setattr(StepSolver, "step", fail)
    code = main(["run", "--problem", "quartic-sep-10d", "--mode", "plain"])
    assert code == 3
    assert "numerical failure: prox-Newton step residual" in capsys.readouterr().err


def test_run_parser_dests_are_the_config_fields():
    # main() passes on only RunConfig's fields, so a flag with any other dest
    # would be dropped without an error
    args = build_parser().parse_args(["run"])
    dests = set(vars(args)) - {"command"}
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    assert dests == fields | {"config", "print_config"}
    # the inner loop's cap is not a run option
    assert "max_inner" not in fields
    with pytest.raises(SystemExit) as exc:
        main(["run", "--max-inner", "5"])
    assert exc.value.code == 1


def test_load_config_defaults():
    cfg = load_config(None, {})
    assert cfg == RunConfig()
    with pytest.raises(ValueError):
        RunConfig(mode="steepest").validate()


def test_bilevel_refuses_beta(tmp_path, capsys):
    # bi-level runs at beta = 1/p, so an explicit beta would be ignored
    assert main(["run", "--problem", "neglog-sep", "--mode", "bilevel", "--beta", "0.9",
                 "--out", "runD"]) == 1
    assert "beta" in capsys.readouterr().err
    assert not (tmp_path / "runD").exists()


@pytest.mark.parametrize(
    "mode, option",
    (
        ("example1", ["--problem", "neglog-sep"]),
        ("example1", ["--p", "5"]),
        ("example1", ["--m", "2.0"]),
        ("example2", ["--problem", "neglog-sep"]),
        ("example2", ["--p", "5"]),
        ("example2", ["--h", "3.0"]),
    ),
)
def test_example_modes_refuse_ignored_options(mode, option, tmp_path, capsys):
    assert main(["run", "--mode", mode, "--out", "runE"] + option) == 1
    assert "drop %s" % option[0] in capsys.readouterr().err
    assert not (tmp_path / "runE").exists()


@pytest.mark.parametrize(
    "mode, problem", (("example1", "linear-nonneg-1d"), ("example2", "quartic-abs-1d"))
)
def test_example_modes_accept_their_own_problem(mode, problem, capsys):
    # the default is the mode's own problem, and naming it is allowed
    for args in ([], ["--problem", problem, "--p", "3"]):
        assert main(["run", "--mode", mode, "--print-config"] + args) == 0
        assert json.loads(capsys.readouterr().out)["problem"] == problem


def test_summary_records_evaluations(tmp_path):
    code = main(["run", "--problem", "neglog-sep", "--mode", "bilevel", "--p", "3",
                 "--eps", "1e-6", "--max-outer", "100", "--out", "runF"])
    assert code == 0
    summary = json.loads((tmp_path / "runF" / "summary.json").read_text())
    calls = summary["calls_by_order"]
    assert set(calls) == {"0", "1", "2"}
    # counted from the run's start: one gradient per certified candidate and
    # one at x_0, for each of the oracle's rows (later solves start at T_{k-1}
    # and reuse its certificate's gradient)
    neglog = get_problem("neglog-sep")
    rows = neglog.oracle.a.shape[0]
    outer = (tmp_path / "runF" / "outer.csv").read_text()
    cells = [line.split(",") for line in outer.strip().split("\n")[2:]]
    candidates = sum(int(c[4]) for c in cells) + summary["backtracks"]
    assert calls["1"] == rows * (candidates + 1)
    assert "fallbacks" not in summary
    # M_k starts at the declared M and moves inside (0, M] by halvings and
    # doublings; the adaptive rule leaves the CSV's columns as they were
    m = neglog.m_next(3)
    lo, hi = summary["m_range"]
    assert 0.0 < lo < hi == m
    halvings, doublings = summary["m_halvings"], summary["m_doublings"]
    assert isinstance(halvings, int) and isinstance(doublings, int)
    assert halvings > 0 and doublings >= 0
    assert lo >= m * 0.5 ** halvings
    assert outer.splitlines()[0] == "k,F,gap,bound_rhs,inner_iters,cert_lhs,cert_rhs"
    for key in ("calls_by_order", "lsmooth", "backtracks", "m_range",
                "m_halvings", "m_doublings"):
        assert key not in outer
    # the kept inner step constants lie in [mu, L]; a rejected step candidate
    # is certified, so it costs one gradient as a kept one does
    assert main(["run", "--problem", "quartic-1d", "--mode", "bilevel", "--p", "3",
                 "--eps", "1e-6", "--max-outer", "200", "--out", "runF1"]) == 0
    summary = json.loads((tmp_path / "runF1" / "summary.json").read_text())
    quartic = get_problem("quartic-1d")
    rc = relative_constants(3, summary["h"], quartic.m_next(3))
    lo, hi = summary["lsmooth_range"]
    assert rc.mu <= lo < hi == rc.lsmooth
    assert isinstance(summary["backtracks"], int) and summary["backtracks"] > 0
    cells = [line.split(",") for line in
             (tmp_path / "runF1" / "outer.csv").read_text().strip().split("\n")[2:]]
    candidates = sum(int(c[4]) for c in cells) + summary["backtracks"]
    assert summary["calls_by_order"]["1"] == quartic.oracle.a.shape[0] * (candidates + 1)
    for path in (tmp_path / "runF1").glob("inner_k*.csv"):
        assert path.read_text().splitlines()[0] == "i,phi,bregman_step,lhs,rhs,ratio"


def test_plain_run_counts_one_residual_pass_per_exact_prox_point(tmp_path):
    # each exact prox evaluates its start once, in the pass prox-Newton starts
    # from; a separate grad f at the start would add one gradient per outer
    # step (17 here)
    assert main(["run", "--problem", "quartic-1d", "--mode", "plain", "--p", "3",
                 "--out", "runP"]) == 0
    summary = json.loads((tmp_path / "runP" / "summary.json").read_text())
    assert summary["iterations"] == 17
    assert summary["calls_by_order"] == {"0": 120, "1": 119, "2": 102}


def test_summary_records_newton_iterations_and_certificate_ratio(tmp_path):
    code = main(["run", "--problem", "neglog-sep", "--mode", "bilevel", "--p", "3",
                 "--eps", "1e-6", "--max-outer", "100", "--out", "runG"])
    assert code == 0
    summary = json.loads((tmp_path / "runG" / "summary.json").read_text())
    assert isinstance(summary["newton_iters"], int)
    assert summary["newton_iters"] >= summary["inner_total"] > 0
    # the worst certificate came this close to its limit lhs = beta rhs
    lines = (tmp_path / "runG" / "outer.csv").read_text().strip().split("\n")
    assert lines[0] == "k,F,gap,bound_rhs,inner_iters,cert_lhs,cert_rhs"
    cells = [line.split(",") for line in lines[2:]]
    ratios = [float(c[5]) / (summary["beta"] * float(c[6])) for c in cells]
    assert summary["worst_cert_ratio"] == max(ratios)
    assert 0.0 < summary["worst_cert_ratio"] <= 1.0 + 1e-9
    inner = (tmp_path / "runG" / "inner_k1.csv").read_text()
    assert inner.splitlines()[0] == "i,phi,bregman_step,lhs,rhs,ratio"
    # a run without an inner loop records no Newton iterations
    assert main(["run", "--problem", "quartic-1d", "--mode", "plain", "--eps", "1e-6",
                 "--max-outer", "200", "--out", "runH"]) == 0
    plain = json.loads((tmp_path / "runH" / "summary.json").read_text())
    assert plain["newton_iters"] == 0
    # and keeps M fixed
    assert plain["m_range"] is None and plain["m_halvings"] == plain["m_doublings"] == 0
    assert 0.0 <= plain["worst_cert_ratio"] <= 1.0 + 1e-9
