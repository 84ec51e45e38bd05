"""The benchmark, ``perfbench/``, against the program: every module
attribute its tracer (``tracing.py``) patches still exists, the model sizes
it counts after ``build_uc`` are the model's own, every frequency row
builder it counts still runs, and the swing re-check of its trace mode
(``run.py``) reads the solutions the program returns.
``perfbench/`` has its own tests, which the default test paths do not
collect."""

import importlib.util
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import frequc.freqsec
import frequc.scheduler
from frequc.cli import _scale_wind
from frequc.scheduler import UcOptions, solve_rolling_horizon
from frequc.sysmodel import build_scenario_tree, load_scenario_table, load_system

ROOT = Path(__file__).resolve().parent.parent


def load_perfbench_module(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer_class():
    return load_perfbench_module("tracing").Tracer


def test_tracer_counts_a_bundled_window():
    system = load_system(ROOT / "data" / "toy_system.yaml")
    levels, table = load_scenario_table(ROOT / "data" / "toy_scenarios.txt")
    tree = build_scenario_tree(levels, table)
    build_uc = frequc.scheduler.build_uc
    tracer = load_tracer_class()()
    with tracer.patched():
        model = frequc.scheduler.build_uc(system, tree,
                                          UcOptions(horizon=4, first_stage=4))
    assert frequc.scheduler.build_uc is build_uc

    compiled = model.compile()
    counts = tracer.counts
    assert counts["model.vars"] == model.n_vars
    assert counts["model.rows"] == model.n_rows
    assert counts["model.nnz"] == compiled.a.nnz
    assert counts["model.binaries"] == int(compiled.integrality.sum()) > 0
    assert counts["freqsec.rows"] > 0
    assert {span[2] for span in tracer.spans} >= {"scheduler.build",
                                                  "freqsec.rows"}


def test_every_counted_row_builder_runs_in_a_bundled_window(monkeypatch):
    """Each ``frequc.freqsec`` function the tracer counts as
    ``freqsec.rows`` is called through the module, in every period of a
    secured, optimised 4-period bundled window, and returns what the
    tracer counts, its template rows as a non-empty list: a builder folded
    into another would read 0."""
    names = load_perfbench_module("tracing").FREQSEC_ROW_BUILDERS
    calls = Counter()

    def spy(name, builder):
        def called(*args, **kwargs):
            result = builder(*args, **kwargs)
            assert isinstance(result, list) and result, name
            calls[name] += 1
            return result
        return called

    for name in names:
        monkeypatch.setattr(frequc.freqsec, name,
                            spy(name, getattr(frequc.freqsec, name)))
    system = load_system(ROOT / "data" / "toy_system.yaml")
    levels, table = load_scenario_table(ROOT / "data" / "toy_scenarios.txt")
    tree = build_scenario_tree(levels, table)
    frequc.scheduler.build_uc(system, tree, UcOptions(
        horizon=4, first_stage=4, largest_loss_mode="optimised"))
    assert {name: calls[name] >= 4 for name in names} == \
        {name: True for name in names}


def test_swing_recheck_reads_a_bundled_rolling_run(monkeypatch):
    """The trace mode's re-check passes every cell of a secured run: one
    check per cell of each window and of the path."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py prepends to it
    run_module = load_perfbench_module("run")
    base = load_system(ROOT / "data" / "toy_system.yaml")
    levels, table = load_scenario_table(ROOT / "data" / "toy_scenarios.txt")
    base = replace(base, demand_profile=base.demand_profile[:6])
    system, tree = _scale_wind(base, build_scenario_tree(levels, table[:6]),
                               3000.0)
    run = solve_rolling_horizon(system, tree,
                                UcOptions(horizon=4, first_stage=2))
    assert run.ok and len(run.windows) == 3
    cells = sum(w.wind_used.size for w in run.windows) + 6
    assert run_module.swing_recheck([(system, run)]) == (cells, 0)
