"""End-to-end checks of the command-line entry points.

All tests drive ``frequc.cli.main`` directly with a miniature two-unit
system that solves in well under a second.
"""

import json
import os
import subprocess
import sys
import textwrap
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import frequc.cli
import frequc.scheduler
from frequc.cli import _ordered_results, main
from frequc.milp import branch_bound
from frequc.scheduler import RollingResult, SchedulerError

SYSTEM_TEMPLATE = """\
generators:
  - id: big
    technology: thermal
    p_max: 400.0
    p_min: 100.0
    inertia_const: 5.0
    marginal_cost: 10.0
    no_load_cost: 50.0
    startup_cost: 100.0
    pfr_max: 0.0
    emissions_rate: 0.8
    deloadable: true
    max_deload_fraction: 0.4
  - id: resp
    technology: thermal
    p_max: 350.0
    p_min: 50.0
    inertia_const: 30.0
    marginal_cost: 30.0
    no_load_cost: 40.0
    startup_cost: 80.0
    pfr_max: {pfr_max}
    emissions_rate: 0.4
frequency:
  f0: 50.0
  df_max: 1.5
  df_ss_max: 1.5
  rocof_max: 1.0
  t_d: 2.5
  damping: 0.3
demand:
  profile: [600.0, 630.0, 560.0]
  period_hours: 1.0
scenarios:
  wind_capacity: 100.0
"""

SCENARIOS = """\
# net demand quantiles, one row per period
0.3  0.7
530  570
550  580
490  530
"""

STUDY = """\
study:
  wind_capacities: [100.0, 200.0]
  modes: [fixed, optimised]
  periods: 3
  horizon: 3
  first_stage: 3
"""


def write_inputs(tmp_path, pfr_max=300.0):
    system = tmp_path / "system.yaml"
    system.write_text(SYSTEM_TEMPLATE.format(pfr_max=pfr_max))
    scenarios = tmp_path / "scenarios.txt"
    scenarios.write_text(SCENARIOS)
    return str(system), str(scenarios)


def read_table(path):
    lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
    header = lines[0].split()
    rows = [ln.split() for ln in lines[1:]]
    return header, rows


def run_study(tmp_path, name="study"):
    system, scenarios = write_inputs(tmp_path)
    config = tmp_path / "study.yaml"
    config.write_text(STUDY)
    out = tmp_path / name
    return main(["study", system, scenarios, str(config), "--out", str(out)]), out


def test_validate_accepts_good_inputs(tmp_path, capsys):
    system, scenarios = write_inputs(tmp_path)
    assert main(["validate", system, scenarios]) == 0
    out = capsys.readouterr().out
    assert out.count("ok:") == 2
    assert "3 periods" in out


def test_validate_reports_broken_yaml(tmp_path, capsys):
    bad = tmp_path / "system.yaml"
    bad.write_text("generators: [nonsense")
    assert main(["validate", str(bad)]) == 1
    assert "error:" in capsys.readouterr().out


def test_validate_catches_period_mismatch(tmp_path, capsys):
    system, _ = write_inputs(tmp_path)
    short = tmp_path / "short.txt"
    short.write_text("0.3 0.7\n330 370\n350 390\n")
    assert main(["validate", system, str(short)]) == 1
    assert "2 periods" in capsys.readouterr().out


@pytest.mark.parametrize("edit, message", [
    (("periods: 3", "periods: 2.5"), "periods must be a whole number, got 2.5"),
    (("horizon: 3", "horizon: true"), "horizon must be a whole number, got True"),
    (("first_stage: 3", "first_stage: false"),
     "first_stage must be a whole number, got False"),
    (("horizon: 3", "horizon: 0"), "horizon must be at least 1 period"),
    (("first_stage: 3", "first_stage: 4"),
     "first_stage must lie in [1, horizon], got 4 with horizon 3"),
    (("first_stage: 3", "first_stage: 0"), "first_stage must lie in [1, horizon]"),
    (("first_stage: 3", 'first_stage: 3\n  deloading_enabled: "false"'),
     "deloading_enabled must be true, got 'false'"),
    # two cells whose output files and study.txt rows would be the same
    (("[100.0, 200.0]", "[1849.9999, 1850.0]"),
     "wind_capacities 1849.9999 and 1850.0 both print as 1850"),
    (("[100.0, 200.0]", "[100, 200, 100.0]"),
     "wind_capacities 100.0 and 100.0 both print as 100"),
    (("[fixed, optimised]", "[fixed, optimised, fixed]"),
     "mode 'fixed' is listed twice"),
    # a scalar where a list belongs, not its characters or an iteration error
    (("[fixed, optimised]", "optimised"), "modes must be a list, got 'optimised'"),
    (("[100.0, 200.0]", "700"), "wind_capacities must be a list, got 700"),
    # no cell at all: the study would print a header and exit 0
    (("[fixed, optimised]", "[]"), "modes must list at least one mode"),
    # the plant at full output is mode fixed, not a switch
    (("first_stage: 3", "first_stage: 3\n  deloading_enabled: false"),
     "deloading_enabled must be true, got False; list modes: [fixed] to "
     "keep the largest plant at full output"),
])
def test_study_config_rejects_misread_values(tmp_path, capsys, edit, message):
    """Values the study would misread, or reject only once it runs, fail
    validation and the study itself with one line, exit 1."""
    system, scenarios = write_inputs(tmp_path)
    config = tmp_path / "study.yaml"
    config.write_text(STUDY.replace(*edit))
    assert main(["validate", system, scenarios, "--study", str(config)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [ln for ln in lines if ln.startswith("ok:")]
    assert len(lines) == 3 and lines[2].startswith(f"error: {config}: ")
    assert message in lines[2]
    out = tmp_path / "study"
    assert main(["study", system, scenarios, str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1 and not out.exists()


BROKEN_INPUTS = {
    # file, replacement text, message
    "system": ("system", "demand:\n  profile: [500.0]\n",
               "missing section 'generators'"),
    "table": ("scenarios", "0.3  0.7\n530  570\n550\n",
              ":3: expected 2 columns, got 1"),
    "tree": ("scenarios", "0.3  0.7\n570  530\n550  580\n490  530\n",
             "rows must be non-decreasing"),
    "study": ("config", STUDY.replace("[fixed, optimised]", "optimised"),
              "modes must be a list"),
    "study section": ("config", "study: 5\n",
                      "expected a top-level 'study' mapping"),
}


@pytest.mark.parametrize("case", sorted(BROKEN_INPUTS))
def test_input_errors_name_their_file_once(tmp_path, capsys, case):
    """An error in an input file names that file once: in ``validate``, in
    ``study`` and, for the system and the scenarios, in ``solve``."""
    system, scenarios = write_inputs(tmp_path)
    config = tmp_path / "study.yaml"
    config.write_text(STUDY)
    paths = {"system": system, "scenarios": scenarios, "config": str(config)}
    broken, text, message = BROKEN_INPUTS[case]
    path = paths[broken]
    Path(path).write_text(text)

    assert main(["validate", system, scenarios, "--study", str(config)]) == 1
    lines = capsys.readouterr().out.splitlines()
    errors = [line for line in lines if not line.startswith("ok:")]
    assert len(lines) == 3 and len(errors) == 1
    assert errors[0].startswith(f"error: {path}") and message in errors[0]
    assert errors[0].count(path) == 1

    runs = [["study", system, scenarios, str(config)]]
    if broken != "config":
        runs.append(["solve", system, scenarios])
    for argv in runs:
        assert main(argv + ["--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}") and message in err
        assert err.count(path) == 1 and err.count("\n") == 1


@pytest.mark.parametrize("target, edit, message", [
    ("system", ("damping: 0.3", "damping: true"),
     "frequency: damping must be a number, got True"),
    ("system", ("pfr_max: 300.0", "pfr_max: true"),
     "generator resp: pfr_max must be a number, got True"),
    ("system", ("deloadable: true", 'deloadable: "no"'),
     "generator big: deloadable must be true or false, got 'no'"),
    ("system", ("emissions_rate: 0.8", 'emissions_rate: "0.95"'),
     "generator big: emissions_rate must be a number, got '0.95'"),
    ("system", ("[600.0, 630.0, 560.0]", '[600.0, "630", 560.0]'),
     "system: demand_profile[1] must be a number, got '630'"),
    ("system", ("damping: 0.3",
                'damping: 0.3\n  nadir_segments: [240.0, "400"]'),
     "frequency: nadir_segments[1] must be a number, got '400'"),
    ("system", ("wind_capacity: 100.0", 'wind_capacity: "100"'),
     "system: wind_capacity must be a number, got '100'"),
    ("system", ("period_hours: 1.0", 'period_hours: "1"'),
     "system: period_hours must be a number, got '1'"),
    ("config", ("[100.0, 200.0]", '[true, "2000"]'),
     "wind_capacities must hold numbers, got True"),
    ("config", ("[100.0, 200.0]", '[100.0, "2000"]'),
     "wind_capacities must hold numbers, got '2000'"),
])
def test_values_of_the_wrong_type_exit_invalid(tmp_path, capsys, target,
                                               edit, message):
    """A boolean or a quoted string where a number belongs, or a string
    where a boolean belongs, fails validation and the study, naming the
    field, rather than being read as a number or a truthy value."""
    system, scenarios = write_inputs(tmp_path)
    config = tmp_path / "study.yaml"
    config.write_text(STUDY)
    path = Path({"system": system, "config": config}[target])
    assert edit[0] in path.read_text()
    path.write_text(path.read_text().replace(*edit))
    assert main(["validate", system, scenarios, "--study", str(config)]) == 1
    assert f"error: {path}: {message}" in capsys.readouterr().out
    out = tmp_path / "study"
    assert main(["study", system, scenarios, str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: {message}\n" and not out.exists()


@pytest.mark.parametrize("unit, field, value, shown", [
    ("big", "min_up", "2.5", "2.5"), ("resp", "min_down", "true", "True"),
    ("resp", "min_up", "1.5", "1.5"),
])
def test_validate_rejects_minimum_times_that_are_not_whole(
        tmp_path, capsys, unit, field, value, shown):
    """A fractional or boolean minimum time fails validation, naming the
    unit and the field, and so does a rolling study, which would otherwise
    read it when it carries the state into a later window."""
    system, scenarios = write_inputs(tmp_path)
    marker = f"  - id: {unit}\n"
    Path(system).write_text(Path(system).read_text().replace(
        marker, f"{marker}    {field}: {value}\n"))
    message = f"generator {unit}: {field} must be a whole number, got {shown}"
    assert main(["validate", system, scenarios]) == 1
    assert f"error: {system}: {message}" in capsys.readouterr().out
    config = tmp_path / "study.yaml"
    config.write_text(STUDY.replace("first_stage: 3", "first_stage: 1"))
    assert main(["study", system, scenarios, str(config),
                 "--out", str(tmp_path / "run")]) == 1
    assert message in capsys.readouterr().err


def test_study_config_accepts_whole_numbers(tmp_path, capsys):
    system, scenarios = write_inputs(tmp_path)
    config = tmp_path / "study.yaml"
    config.write_text(STUDY.replace("periods: 3", "periods: 3.0")
                      + "  deloading_enabled: true\n")
    assert main(["validate", system, scenarios, "--study", str(config)]) == 0
    assert capsys.readouterr().out.count("ok:") == 3
    bundled = Path(__file__).resolve().parent.parent / "data"
    assert main(["validate", str(bundled / "toy_system.yaml"),
                 str(bundled / "toy_scenarios.txt"),
                 "--study", str(bundled / "toy_study.yaml")]) == 0


def test_solve_writes_tables_and_manifest(tmp_path, capsys):
    system, scenarios = write_inputs(tmp_path)
    out = tmp_path / "run"
    assert main(["solve", system, scenarios, "--out", str(out)]) == 0
    for name in ("commitment.txt", "dispatch.txt", "costs.txt",
                 "verification.txt", "manifest.json"):
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "solve"
    assert manifest["options"]["largest_loss_mode"] == "optimised"
    assert manifest["seed"] == 0
    assert "failures: 0" in (out / "verification.txt").read_text()
    header, rows = read_table(out / "commitment.txt")
    assert header[0] == "period" and len(rows) == 3
    assert "expected cost" in capsys.readouterr().out


def test_solve_infeasible_security_exports_lp(tmp_path, capsys):
    # a 100 MW response ceiling cannot secure the full 400 MW loss
    system, scenarios = write_inputs(tmp_path, pfr_max=100.0)
    out = tmp_path / "run"
    code = main(["solve", system, scenarios, "--out", str(out),
                 "--mode", "fixed"])
    assert code == 2
    assert (out / "model.lp").exists()
    assert "model.lp" in capsys.readouterr().err


def test_solve_rejects_row_breaking_solution(tmp_path, monkeypatch, capsys):
    """A solver answer that breaks the model's rows is a solver failure."""
    real_run = branch_bound.run_highs

    def broken_run(*args, **kwargs):
        sol = real_run(*args, **kwargs)
        sol.values = np.zeros_like(sol.values)  # nothing serves the demand
        return sol

    monkeypatch.setattr(branch_bound, "run_highs", broken_run)
    system, scenarios = write_inputs(tmp_path)
    out = tmp_path / "run"
    assert main(["solve", system, scenarios, "--out", str(out)]) == 2
    assert (out / "model.lp").exists()
    assert not (out / "dispatch.txt").exists()
    assert "violated" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "study"])
def test_solver_exception_exits_solver(tmp_path, monkeypatch, capsys,
                                       command):
    """An exception inside the solver exits 2 with one line, no traceback."""
    def crashing_run(*args, **kwargs):
        raise RuntimeError("HiGHS crashed")

    monkeypatch.setattr(branch_bound, "run_highs", crashing_run)
    system, scenarios = write_inputs(tmp_path)
    config = tmp_path / "study.yaml"
    config.write_text(STUDY)
    inputs = [system, scenarios] + ([str(config)] if command == "study" else [])
    code = main([command, *inputs, "--out", str(tmp_path / "run")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: solver failure: ")
    assert "HiGHS crashed" in err


@pytest.mark.parametrize("argv, code", [
    (["solve", "s.yaml", "q.txt", "-o", "run", "--mode", "bogus"], 1),
    (["solve", "s.yaml", "q.txt", "-o", "run", "--backend", "builtin"], 1),
    (["solve", "s.yaml", "q.txt", "-o", "run", "--horizon", "three"], 1),
    (["nonsense"], 1),
    ([], 1),
    (["--help"], 0),
    (["--version"], 0),
    (["solve", "--help"], 0),
])
def test_parser_exit_codes(argv, code, capsys):
    """Usage errors exit 1 (invalid input); 2 is kept for solver failures."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    captured = capsys.readouterr()
    assert captured.out if code == 0 else "error:" in captured.err


@pytest.mark.parametrize("case, message", [
    # damping x demand moves the requirement's vertex above the loss grid
    ("hot grid", "period 0: segment grid enters the region"),
    pytest.param("text in profile",
                 "demand_profile[1] must be a number, got 'abc'",
                 id="text in profile"),
    pytest.param("text in study", "periods must be a whole number, got 'three'",
                 id="text in study"),
    ("negative loss", "region: loss must be positive"),
])
def test_input_errors_exit_invalid(tmp_path, capsys, case, message):
    system, scenarios = write_inputs(tmp_path)
    edits = {"hot grid": ("damping: 0.3", "damping: 3.0"),
             "text in profile": ("630.0", "abc")}
    if case in edits:
        bad = tmp_path / "bad.yaml"
        bad.write_text(Path(system).read_text().replace(*edits[case]))
        argv = ["solve", str(bad), scenarios]
    elif case == "text in study":
        config = tmp_path / "study.yaml"
        config.write_text(STUDY.replace("periods: 3", "periods: three"))
        argv = ["study", system, scenarios, str(config)]
    else:
        argv = ["region", "--loss", "200", "--loss", "-5",
                "--delivery-time", "10", "--df-max", "0.8"]
    assert main(argv + ["--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_internal_value_error_is_not_invalid_input(tmp_path, monkeypatch):
    """Only input errors map to exit 1; a bug inside a command propagates."""
    def broken_solve(model, *, basis=None):
        raise ValueError("internal fault")

    monkeypatch.setattr(frequc.scheduler, "solve", broken_solve)
    system, scenarios = write_inputs(tmp_path)
    with pytest.raises(ValueError, match="internal fault"):
        main(["solve", system, scenarios, "--out", str(tmp_path / "run")])


def test_solve_rerun_is_byte_identical(tmp_path):
    system, scenarios = write_inputs(tmp_path)
    out = tmp_path / "run"
    args = ["solve", system, scenarios, "--out", str(out),
            "--backend", "highs"]
    assert main(args) == 0
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(args) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


def test_tables_print_tiny_negatives_as_unsigned_zero(tmp_path):
    path = tmp_path / "table.txt"
    frequc.cli._write_table(path, ["name", "value"],
                            [("tiny", -1e-12), ("zero", -0.0),
                             ("small", -4e-7), ("above", -6e-7),
                             ("neg", -0.25)])
    values = [line.split()[1] for line in path.read_text().splitlines()[1:]]
    assert values == ["0.000000", "0.000000", "0.000000", "-0.000001",
                      "-0.250000"]


def test_study_emits_metric_table(tmp_path):
    code, out = run_study(tmp_path)
    assert code == 0
    header, rows = read_table(out / "study.txt")
    assert header[:2] == ["wind_capacity_mw", "mode"]
    assert len(rows) == 4
    assert {(r[0], r[1]) for r in rows} == {
        ("100", "fixed"), ("100", "optimised"),
        ("200", "fixed"), ("200", "optimised"),
    }
    assert (out / "trajectory_w100_fixed.txt").exists()
    assert (out / "trajectory_w200_optimised.txt").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "study"
    assert manifest["options"]["wind_capacities"] == [100.0, 200.0]


def test_concurrent_study_matches_serial(tmp_path, monkeypatch):
    """The 8 rolling runs of the study give the same bytes on any pool size."""
    outputs = {}
    for cpus in (None, 8, 1):  # as found, one thread per run, serial
        if cpus is not None:
            monkeypatch.setattr(frequc.cli, "_available_cpus", lambda: cpus)
        code, out = run_study(tmp_path, f"study{cpus}")
        assert code == 0
        files = {p.name: p.read_bytes() for p in out.iterdir()}
        manifest = json.loads(files.pop("manifest.json"))
        del manifest["output_dir"]
        outputs[cpus] = files, manifest
    files, _ = outputs[1]
    assert sorted(files) == ["study.txt", "trajectory_w100_fixed.txt",
                             "trajectory_w100_optimised.txt",
                             "trajectory_w200_fixed.txt",
                             "trajectory_w200_optimised.txt"]
    assert outputs[None] == outputs[1]
    assert outputs[8] == outputs[1]


def test_ordered_results_runs_each_call_once_in_order():
    """More threads than cores, a short switch interval, the caller helping."""
    runs = Counter()
    threads = set()
    lock = threading.Lock()

    def call(k):
        with lock:
            runs[k] += 1
            threads.add(threading.get_ident())
        time.sleep(0.001 * (k % 3))
        return k

    calls = [(call, (k,)) for k in range(200)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert list(_ordered_results(calls, 8)) == list(range(200))
        assert runs == Counter(range(200))
        assert threading.get_ident() in threads
        assert 2 <= len(threads) <= 8

        runs.clear()
        in_order = _ordered_results(calls, 2)
        assert next(in_order) == 0
        in_order.close()  # waits for the call still running
        started = sum(runs.values())
        time.sleep(0.05)
        assert sum(runs.values()) == started < len(calls)
    finally:
        sys.setswitchinterval(interval)


def fail_study_runs(monkeypatch, failures):
    """Make the rolling runs named in ``failures`` fail.

    ``failures`` maps (wind capacity, mode, secured) to ``"solver"`` (a
    failed run is returned) or ``"raise"`` (``SchedulerError``).
    """
    real = frequc.cli.solve_rolling_horizon

    def rolling(system, tree, options):
        key = (system.wind_capacity, options.largest_loss_mode,
               options.frequency_constraints)
        failure = failures.get(key)
        if failure == "raise":
            raise SchedulerError(f"cannot run {key}")
        if failure == "solver":
            return RollingResult([], None, status="solver",
                                 message="window at period 0: infeasible")
        return real(system, tree, options)

    monkeypatch.setattr(frequc.cli, "solve_rolling_horizon", rolling)


@pytest.mark.parametrize("cpus", [1, 8])
def test_study_reports_first_failure_in_config_order(tmp_path, monkeypatch,
                                                     capsys, cpus):
    monkeypatch.setattr(frequc.cli, "_available_cpus", lambda: cpus)
    fail_study_runs(monkeypatch, {(100.0, "optimised", True): "solver",
                                  (200.0, "fixed", False): "raise"})
    code, out = run_study(tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert "study cell (wind 100, optimised, secured): window at period 0" in err
    assert "200" not in err and "fixed" not in err
    assert [p.name for p in out.glob("trajectory_*")] == [
        "trajectory_w100_fixed.txt"]
    assert not (out / "study.txt").exists()


@pytest.mark.parametrize("cpus", [1, 8])
def test_study_scheduler_error_in_first_cell_is_invalid_input(
        tmp_path, monkeypatch, capsys, cpus):
    monkeypatch.setattr(frequc.cli, "_available_cpus", lambda: cpus)
    fail_study_runs(monkeypatch, {(100.0, "fixed", True): "raise",
                                  (100.0, "optimised", True): "solver"})
    code, out = run_study(tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert "error: cannot run (100.0, 'fixed', True)" in err
    assert "study cell" not in err
    assert not list(out.glob("trajectory_*"))


def test_study_rejects_unknown_config_field(tmp_path, capsys):
    system, scenarios = write_inputs(tmp_path)
    config = tmp_path / "study.yaml"
    config.write_text("study:\n  wind_capacities: [100.0]\n  solver: magic\n")
    code = main(["study", system, scenarios, str(config),
                 "--out", str(tmp_path / "study")])
    assert code == 1
    assert "unknown study fields" in capsys.readouterr().err


def test_region_table_groups_and_intercept(tmp_path):
    out = tmp_path / "region"
    code = main(["region", "--loss", "200", "--loss", "300",
                 "--delivery-time", "10", "--df-max", "0.8",
                 "--damping-max", "200", "--points", "6",
                 "--out", str(out)])
    assert code == 0
    header, rows = read_table(out / "region.txt")
    assert header[0] == "loss_mw" and len(rows) == 12
    small = [r for r in rows if r[0] == "200"]
    large = [r for r in rows if r[0] == "300"]
    assert len(small) == len(large) == 6
    # zero-damping boundary collapses to the quadratic requirement
    assert float(small[0][2]) == pytest.approx(200.0**2 * 10 / (4 * 0.8), rel=1e-6)
    assert float(large[0][2]) == pytest.approx(300.0**2 * 10 / (4 * 0.8), rel=1e-6)
    for r_small, r_large in zip(small, large):
        assert float(r_large[2]) > float(r_small[2])


def test_region_rejects_degenerate_grid(tmp_path, capsys):
    code = main(["region", "--loss", "200", "--delivery-time", "10",
                 "--df-max", "0.8", "--points", "1",
                 "--out", str(tmp_path / "region")])
    assert code == 1
    assert "grid points" in capsys.readouterr().err


def test_console_script_is_wired_up(tmp_path):
    system, scenarios = write_inputs(tmp_path)
    # the child imports the same frequc as the tests, installed or not
    package_root = str(Path(frequc.cli.__file__).resolve().parents[1])
    path = [package_root, os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "frequc.cli", "validate", system, scenarios],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert proc.returncode == 0
    assert "ok:" in proc.stdout
