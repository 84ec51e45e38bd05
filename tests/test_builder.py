"""The array window builder against the loop builder in
``reference.builder``: every window compiles to the same arrays, with the
same names and labels in the same order."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from frequc.cli import _scale_wind
from frequc.milp import solve
from frequc.scheduler import (
    LOSS_MODES,
    UcOptions,
    UnitState,
    build_uc,
    extract_solution,
    realized_series,
    slice_tree,
)
from frequc.sysmodel import (
    ScenarioBranch,
    ScenarioTree,
    build_scenario_tree,
    load_scenario_table,
    load_system,
)
from reference.builder import assert_same_model, build_uc_loop

DATA = Path(__file__).resolve().parent.parent / "data"


def assert_builders_agree(system, tree, options, **kwargs):
    model = build_uc(system, tree, options, **kwargs)
    assert_same_model(model, build_uc_loop(system, tree, options, **kwargs))
    return model


def bundled(wind=3000.0):
    base = load_system(DATA / "toy_system.yaml")
    levels, table = load_scenario_table(DATA / "toy_scenarios.txt")
    return _scale_wind(base, build_scenario_tree(levels, table), wind)


@pytest.mark.parametrize("horizon", [1, 4, 12])
@pytest.mark.parametrize("secured", [True, False])
@pytest.mark.parametrize("mode", LOSS_MODES)
@pytest.mark.parametrize("wind", [700.0, 3000.0])
def test_bundled_windows_match_the_loop_builder(wind, mode, secured, horizon):
    system, tree = bundled(wind)
    options = UcOptions(frequency_constraints=secured, horizon=horizon,
                        first_stage=horizon, largest_loss_mode=mode)
    for start in (0, 12):
        assert_builders_agree(system, slice_tree(tree, start, horizon),
                              options, start_period=start)


@pytest.mark.parametrize("horizon", [4, 12])
@pytest.mark.parametrize("wind", [700.0, 3000.0])
def test_must_run_pins_keep_the_optimum(wind, horizon):
    """Secured fixed-mode windows: every commitment the fixed bounds leave
    free is pinned on, and the LP left has the optimum of the unpinned
    MILP."""
    system, tree = bundled(wind)
    options = UcOptions(horizon=horizon, first_stage=horizon,
                        largest_loss_mode="fixed")
    for start in (0, 12):
        window = slice_tree(tree, start, horizon)
        model = build_uc(system, window, options, start_period=start)
        free = model.lb[model.commit] != model.ub[model.commit]
        assert not free.any()
        unpinned = build_uc_loop(system, window, options, start_period=start,
                                 security_pins=False)
        commit = [unpinned.names.index(name) for name in
                  np.array(model.names)[model.commit.ravel()]]
        assert (unpinned.lb[commit] != unpinned.ub[commit]).sum() == \
            (len(system.generators) - 1) * horizon
        got, want = solve(model), solve(unpinned)
        assert got.status == want.status == "optimal"
        assert got.nodes == 0 and want.nodes >= 1
        # a MILP optimum is reported within the relative gap of the true one
        assert want.objective * (1.0 - 1e-6) <= got.objective \
            <= want.objective * (1.0 + 1e-6)
        # the unpinned MILP commits every unit too
        assert np.array_equal(want.values[commit], np.ones(len(commit)))


def long_minimum_times(system):
    """The bundled fleet with minimum times from one period to past the
    longest window."""
    times = [(1, 1), (2, 3), (3, 2), (5, 1), (1, 4), (13, 13), (4, 6), (2, 1)]
    return replace(system, generators=tuple(
        replace(g, min_up=up, min_down=down)
        for g, (up, down) in zip(system.generators, times)))


@pytest.mark.parametrize("horizon", [1, 4, 12])
def test_minimum_time_carry_matches_the_loop_builder(horizon):
    system, tree = bundled(700.0)
    system = long_minimum_times(system)
    states = [UnitState(True, 30), UnitState(True, 1), UnitState(False, 1),
              UnitState(True, 2), UnitState(False, 2), UnitState(True, 5),
              UnitState(False, 3), UnitState(False, 0)]
    initial = {g.id: state for g, state in zip(system.generators, states)}
    for mode in LOSS_MODES:
        options = UcOptions(horizon=horizon, first_stage=horizon,
                            largest_loss_mode=mode)
        model = assert_builders_agree(system, slice_tree(tree, 4, horizon),
                                      options, start_period=4,
                                      initial_state=initial)
        assert any(row.label.startswith("min_up[ccgt5]")
                   for row in model.rows)
        # the security rows pin every free unit on in fixed mode, but a
        # unit the carry holds off stays off
        held = model.names.index("x[ccgt6][4]")
        assert model.lb[held] == model.ub[held] == 0.0
        if mode == "fixed" and horizon > 1:
            free = model.names.index("x[ocgt1][5]")
            assert model.lb[free] == model.ub[free] == 1.0


@pytest.mark.parametrize("secured", [True, False])
def test_redispatch_windows_match_the_loop_builder(secured):
    """Re-dispatches pin every commitment: one branch, no auxiliaries."""
    system, tree = bundled(1850.0)
    options = UcOptions(frequency_constraints=secured, horizon=4,
                        first_stage=4)
    rng = np.random.default_rng(3)
    pins = {g.id: rng.integers(0, 2, 4).tolist() for g in system.generators}
    pins["lignite1"] = [1, 1, 1, 1]
    realized = realized_series(tree)
    median = ScenarioTree(root=float(realized[8]),
                          branches=(ScenarioBranch(tuple(realized[8:12]), 1.0),),
                          quantile_levels=(0.5,))
    assert_builders_agree(system, median, options, start_period=8,
                          fixed_commitments=pins)
    # pinned commitments over every branch of the stochastic window too
    assert_builders_agree(system, slice_tree(tree, 8, 4), options,
                          start_period=8, fixed_commitments=pins)


def test_extract_reads_the_named_columns():
    """Each extracted value is the solver's value of the column of that
    name."""
    system, tree = bundled(3000.0)
    options = UcOptions(horizon=3, first_stage=3)
    window = slice_tree(tree, 6, 3)
    model = build_uc(system, window, options, start_period=6)
    raw = solve(model)
    assert raw.status == "optimal"
    solution = extract_solution(model, system, window, options, raw,
                                start_period=6)

    def value(name):
        return raw.values[model.names.index(name)]

    for g in system.generators:
        for t in range(3):
            assert solution.commit[g.id][t] == round(value(f"x[{g.id}][{6 + t}]"))
            assert solution.startup[g.id][t] == value(f"su[{g.id}][{6 + t}]")
            for s in range(len(window.branches)):
                tag = f"[{6 + t}][{s}]"
                assert solution.output[g.id][t, s] == value(f"p[{g.id}]{tag}")
                assert solution.pfr[g.id][t, s] == value(f"r[{g.id}]{tag}")
    for t in range(3):
        for s in range(len(window.branches)):
            tag = f"[{6 + t}][{s}]"
            assert solution.wind_used[t, s] == value(f"wind{tag}")
            assert solution.loss[t, s] == value(f"ploss{tag}")
