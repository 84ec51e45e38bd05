"""The array window builder against the loop builder in
``reference.builder``: every window compiles to the same arrays, with the
same names and labels in the same order, whether it is laid out afresh
or written into a layout that a rolling run's earlier windows laid out."""

from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import frequc.freqsec
import frequc.scheduler
from frequc.cli import _scale_wind
from frequc.milp import ModelError, solve
from frequc.milp.model import LaidOutModel
from frequc.scheduler import (
    LOSS_MODES,
    UcOptions,
    WindowLayouts,
    build_uc,
    extract_solution,
    realized_series,
    solve_rolling_horizon,
)
from frequc.sysmodel import (
    FrequencyParams,
    GeneratorSpec,
    ScenarioTree,
    SystemSpec,
    build_scenario_tree,
    default_segment_grid,
    load_scenario_table,
    load_system,
)
from reference.builder import assert_same_model, build_uc_loop

DATA = Path(__file__).resolve().parent.parent / "data"


def assert_builders_agree(system, tree, options, **kwargs):
    model = build_uc(system, tree, options, **kwargs)
    assert_same_model(model, build_uc_loop(system, tree, options, **kwargs))
    return model


def bundled(wind=3000.0, periods=24):
    base = load_system(DATA / "toy_system.yaml")
    base = replace(base, demand_profile=base.demand_profile[:periods])
    levels, table = load_scenario_table(DATA / "toy_scenarios.txt")
    return _scale_wind(base, build_scenario_tree(levels, table[:periods]),
                       wind)


def rolling_builds(monkeypatch, system, tree, options, initial_state=None):
    """Every window and re-dispatch one rolling run builds, as
    ``(args, kwargs, model)``, ``kwargs`` without the run's layouts."""
    builds = []
    build = frequc.scheduler.build_uc

    def spy(*args, layouts, **kwargs):
        model = build(*args, layouts=layouts, **kwargs)
        builds.append((args, kwargs, model, layouts))
        return model

    monkeypatch.setattr(frequc.scheduler, "build_uc", spy)
    run = solve_rolling_horizon(system, tree, options,
                                initial_state=initial_state)
    monkeypatch.setattr(frequc.scheduler, "build_uc", build)
    assert run.ok
    assert len({id(layouts) for *_, layouts in builds}) == 1
    return [build[:3] for build in builds]


@pytest.mark.parametrize("horizon", [1, 4, 12])
@pytest.mark.parametrize("secured", [True, False])
@pytest.mark.parametrize("mode", LOSS_MODES)
@pytest.mark.parametrize("wind", [700.0, 3000.0])
def test_bundled_windows_match_the_loop_builder(wind, mode, secured, horizon):
    system, tree = bundled(wind)
    options = UcOptions(frequency_constraints=secured, horizon=horizon,
                        first_stage=horizon, largest_loss_mode=mode)
    for start in (0, 12):
        assert_builders_agree(system, tree, options, start_period=start)


@pytest.mark.parametrize("edit", ["bound", "rhs", "objective"])
def test_window_numbers_fail_with_the_loop_builders_messages(edit):
    """A NaN in a window's own numbers, a commitment bound, a frequency
    row's right-hand side or an objective coefficient, fails as the
    window's laid-out model is made, with the message the loop builder's
    model gives for the same edit: names and labels read at the window's
    own periods.  A built window's numbers are read-only, so none can be
    written after they were checked."""
    system, tree = bundled()
    options = UcOptions(horizon=4, first_stage=4)
    model = build_uc(system, tree, options, start_period=5)
    reference = build_uc_loop(system, tree, options, start_period=5)
    fleet = [g.id for g in system.generators]
    numbers = {name: getattr(model, name).copy()
               for name in ("lb", "ub", "vals", "rhs", "c")}
    if edit == "bound":
        edited, j = "lb", model.commit[0, fleet.index("ccgt1")]
        reference.lb[j] = np.nan
        message = "variable x[ccgt1][5]: non-finite bounds"
    elif edit == "rhs":
        label = "rocof[5][0]"
        edited, j = "rhs", [row.label for row in reference.rows].index(label)
        block = next(b for b in reference.blocks if label in b.labels)
        block.rhs[block.labels.index(label)] = np.nan
        message = f"row {label!r}: right-hand side must be finite"
    else:
        edited, j = "c", model.output[0, fleet.index("ccgt1"), 0]
        assert reference.names[j] == "p[ccgt1][5][0]" and model.c[j] != 0.0
        reference.objective[j] = np.nan
        message = f"objective: non-finite coefficient on index {j}"
    with pytest.raises(ValueError, match="read-only"):
        getattr(model, edited)[j] = np.nan
    numbers[edited][j] = np.nan
    with pytest.raises(ModelError) as raised:
        LaidOutModel(model.layout, model.name, model.start, **numbers)
    assert str(raised.value) == message
    with pytest.raises(ModelError) as raised:
        reference.compile()
    assert str(raised.value) == message


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
        model = build_uc(system, tree, options, start_period=start)
        free = model.lb[model.commit] != model.ub[model.commit]
        assert not free.any()
        unpinned = build_uc_loop(system, tree, options, start_period=start,
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
    initial = (np.array([True, True, False, True, False, True, False, False]),
               np.array([30, 1, 1, 2, 2, 5, 3, 0]))
    for mode in LOSS_MODES:
        options = UcOptions(horizon=horizon, first_stage=horizon,
                            largest_loss_mode=mode)
        model = assert_builders_agree(system, tree, options, start_period=4,
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
    pins = np.array(list(pins.values())).T  # (T, units), fleet order
    median = ScenarioTree(net=realized_series(tree)[:, None],
                          probabilities=(1.0,), quantile_levels=(0.5,))
    assert_builders_agree(system, median, options, start_period=8,
                          fixed_commitments=pins)
    # pinned commitments over every branch of the stochastic window too
    assert_builders_agree(system, tree, options, start_period=8,
                          fixed_commitments=pins)


def test_extract_reads_the_named_columns():
    """Each extracted value is the solver's value of the column of that
    name."""
    system, tree = bundled(3000.0)
    options = UcOptions(horizon=3, first_stage=3)
    model = build_uc(system, tree, options, start_period=6)
    raw = solve(model)
    assert raw.status == "optimal"
    solution = extract_solution(model, raw)
    assert solution.periods.tolist() == [6, 7, 8]
    assert np.array_equal(solution.demand, system.demand_profile[6:9])
    assert np.array_equal(solution.net, tree.net[6:9])
    assert np.array_equal(solution.probabilities, tree.probabilities)

    def value(name):
        return raw.values[model.names.index(name)]

    for i, g in enumerate(system.generators):
        for t in range(3):
            assert solution.commit[t, i] == round(value(f"x[{g.id}][{6 + t}]"))
            assert solution.startup[t, i] == value(f"su[{g.id}][{6 + t}]")
            for s in range(len(tree.probabilities)):
                tag = f"[{6 + t}][{s}]"
                assert solution.output[t, i, s] == value(f"p[{g.id}]{tag}")
                assert solution.pfr[t, i, s] == value(f"r[{g.id}]{tag}")
    for t in range(3):
        for s in range(len(tree.probabilities)):
            tag = f"[{6 + t}][{s}]"
            assert solution.wind_used[t, s] == value(f"wind{tag}")
            assert solution.loss[t, s] == value(f"ploss{tag}")


@pytest.mark.parametrize("secured", [True, False])
@pytest.mark.parametrize("mode", LOSS_MODES)
def test_rolling_runs_match_the_loop_builder(monkeypatch, mode, secured):
    """Every window and re-dispatch of a rolling run, built through the
    run's one set of layouts, is the loop builder's model and the model
    laid out afresh.  The carried state holds units on through the first
    periods, so the windows leave different commitments free, and the last
    window is cut at the profile's end."""
    system, tree = bundled(700.0, periods=10)
    system = long_minimum_times(system)
    initial = (np.array([True, True, False, True, False, True, False, False]),
               np.array([30, 1, 30, 2, 30, 5, 30, 30]))
    options = UcOptions(frequency_constraints=secured, horizon=4,
                        first_stage=3, largest_loss_mode=mode)
    builds = rolling_builds(monkeypatch, system, tree, options, initial)
    windows = [model for _, kwargs, model in builds
               if kwargs["fixed_commitments"] is None]
    assert [len(model.periods) for model in windows] == [4, 4, 4, 1]
    free = {(model.lb[model.commit] != model.ub[model.commit]).tobytes()
            for model in windows[:3]}
    if mode == "optimised" or not secured:  # fixed mode pins every unit
        assert len(free) > 1
    # some layout serves more than one window
    assert len({id(model.layout) for *_, model in builds}) < len(builds)
    for args, kwargs, model in builds:
        assert_same_model(model, build_uc_loop(*args, **kwargs))
        fresh = build_uc(*args, **kwargs)
        assert fresh.layout is not model.layout
        assert_same_model(model, fresh)


def test_period_rows_run_once_per_layout(monkeypatch):
    """Over a rolling run of same-shape windows, each period's rows are
    written as a block once per period of each distinct layout, not once
    per window, and each period's template is made once per build, which
    both the block and the window's numbers are written from: a change
    that lays every window out again, or that describes a period's rows
    anywhere but in the template, fails here."""
    families = ("inertia_floor_row", "largest_loss_rows",
                "inertia_expression", "rocof_row", "qss_row",
                "linearize_inertia_pfr", "nadir_discretization_rows",
                "hyperbolic_cut_rows")
    calls = Counter()

    def spy(name, function):
        def called(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return called

    for name in families + ("period_template", "period_rows"):
        monkeypatch.setattr(frequc.freqsec, name,
                            spy(name, getattr(frequc.freqsec, name)))
    system, tree = bundled(3000.0)
    options = UcOptions(horizon=2, first_stage=2, largest_loss_mode="fixed")
    builds = rolling_builds(monkeypatch, system, tree, options)
    layouts = {id(model.layout): len(model.periods)
               for *_, model in builds}
    # 12 windows and 12 re-dispatches, 2 periods each: one layout each
    assert len(builds) == 24 and len(layouts) == 2
    laid_out = sum(layouts.values())
    # one template per period of every build, none for the blocks written
    templates = 2 * len(builds)
    assert (laid_out, templates) == (4, 48)
    assert calls == {"period_rows": laid_out, **dict.fromkeys(
        families + ("period_template",), templates)}


def test_a_zero_coefficient_gets_its_own_layout():
    """At the bundled 3000 MW the largest unit, lignite1, adds as much
    inertia when committed as it takes with it when it trips, so with it
    the only synchronous unit fixed on, the ``hr`` row's coefficient on
    ``R`` is exactly 0.  Two one-period windows at period 3, pinned to
    lignite1 alone and to lignite1 with ccgt1-ccgt3, differ in nothing
    that sets a layout but that zero.  Built in that order, in both modes,
    they get a layout each, and each is the loop builder's model: a layout
    reused for the second would drop its ``R`` coefficients."""
    system, tree = bundled(3000.0)
    fleet, freq = system.generators, system.frequency
    ids = [g.id for g in fleet]
    big = ids.index("lignite1")
    assert frequc.freqsec.inertia_coefficients(fleet, freq)[big] \
        == frequc.freqsec.lost_inertia(freq) == 90.0
    for mode in LOSS_MODES:
        options = UcOptions(horizon=1, first_stage=1, largest_loss_mode=mode)
        layouts = WindowLayouts(system)
        models = []
        for on in ({"lignite1"}, {"lignite1", "ccgt1", "ccgt2", "ccgt3"}):
            kwargs = dict(start_period=3,
                          fixed_commitments=[[float(i in on) for i in ids]])
            models.append(build_uc(system, tree, options, layouts=layouts,
                                   **kwargs))
            assert_same_model(models[-1],
                              build_uc_loop(system, tree, options, **kwargs))
        assert models[0].layout is not models[1].layout
        # one more nonzero in each branch's ``hr`` row, and nothing else
        zero, nonzero = (model.compile().a for model in models)
        assert nonzero.nnz - zero.nnz == tree.net.shape[1]


def test_a_period_with_other_chords_gets_its_own_layout():
    """Two one-period windows whose periods differ only in their demand,
    and so in their nadir chord count (at 130 MW the requirement's
    positive root lies below the grid and adds a chord: 10 against 9),
    get a layout each, in both modes, and each is the loop builder's
    model."""
    grid = default_segment_grid(100.0, 0.4)
    fleet = (
        GeneratorSpec("big", "thermal", 100.0, inertia_const=5.0,
                      marginal_cost=10.0, deloadable=True,
                      max_deload_fraction=0.4),
        GeneratorSpec("mid", "thermal", 90.0, inertia_const=4.0,
                      marginal_cost=20.0, pfr_max=40.0),
        GeneratorSpec("small", "thermal", 70.0, inertia_const=3.0,
                      marginal_cost=30.0, pfr_max=30.0))
    freq = FrequencyParams(
        f0=50.0, df_max=0.8, df_ss_max=0.5, rocof_max=0.5, t_d=10.0,
        damping=1.2 * grid[0] / (230.0 * 0.8), nadir_segments=grid,
        largest_unit_rating=100.0, largest_unit_inertia=5.0)
    system = SystemSpec(generators=fleet, demand_profile=(130.0, 230.0),
                        wind_capacity=50.0, period_hours=1.0,
                        frequency=freq)
    tree = ScenarioTree(net=[[110.0, 125.0], [200.0, 220.0]],
                        probabilities=(0.5, 0.5), quantile_levels=(0.25, 0.75))
    for mode in LOSS_MODES:
        options = UcOptions(horizon=1, first_stage=1, largest_loss_mode=mode)
        layouts = WindowLayouts(system)
        assert [len(layouts.constants(t).chords) for t in (0, 1)] == [10, 9]
        models = []
        for start in (0, 1):
            models.append(build_uc(system, tree, options, start_period=start,
                                   layouts=layouts))
            assert_same_model(models[-1], build_uc_loop(
                system, tree, options, start_period=start))
        assert models[0].layout is not models[1].layout
