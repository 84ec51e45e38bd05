"""The benchmark's tracer, ``perfbench/tracing.py``, against the program:
every module attribute it patches still exists, and the model sizes it
counts after ``build_uc`` are the model's own.  ``perfbench/`` has its own
tests, which the default test paths do not collect."""

import importlib.util
from pathlib import Path

import frequc.scheduler
from frequc.scheduler import UcOptions, slice_tree
from frequc.sysmodel import build_scenario_tree, load_scenario_table, load_system

ROOT = Path(__file__).resolve().parent.parent


def load_tracer_class():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer


def test_tracer_counts_a_bundled_window():
    system = load_system(ROOT / "data" / "toy_system.yaml")
    levels, table = load_scenario_table(ROOT / "data" / "toy_scenarios.txt")
    tree = slice_tree(build_scenario_tree(levels, table), 0, 4)
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
