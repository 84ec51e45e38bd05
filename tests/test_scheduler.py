"""Scheduling layer: window construction, rolling runs, study metrics."""

import itertools
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import frequc.scheduler
from frequc.cli import _scale_wind

from frequc.freqsec import nadir_requirement
from frequc.milp import MilpModel, branch_bound, solve
from frequc.scheduler import (
    LOSS_MODES,
    PERIOD_FIELDS,
    SchedulerError,
    UcOptions,
    WindowLayouts,
    _advance_state,
    build_uc,
    committed_inertia,
    default_initial_state,
    emissions,
    extract_solution,
    load_factor,
    period_costs,
    realized_series,
    solve_rolling_horizon,
    solve_uc,
    verify_solution,
    verify_trajectory,
)
from frequc.sysmodel import (
    FrequencyParams,
    GeneratorSpec,
    ScenarioTree,
    SystemSpec,
    build_scenario_tree,
    default_segment_grid,
    largest_unit,
    load_scenario_table,
    load_system,
)
from reference.oracle import fewest_secure_units, solve_exhaustive
from reference.state import advance_state_loop
from test_properties import settled_limit_window

DATA = Path(__file__).resolve().parent.parent / "data"

DEMAND = (900.0, 1000.0, 1100.0, 1150.0, 1050.0, 950.0)
CAPACITY_FACTOR = (0.4, 0.6, 0.8, 0.5, 0.3, 0.7)


def toy_fleet():
    return (
        GeneratorSpec(id="base", technology="thermal", p_max=500.0, p_min=150.0,
                      inertia_const=6.0, marginal_cost=10.0, no_load_cost=400.0,
                      startup_cost=2000.0, min_up=1, min_down=1, pfr_max=0.0,
                      emissions_rate=0.2, deloadable=True, max_deload_fraction=0.4),
        GeneratorSpec(id="mid", technology="thermal", p_max=450.0, p_min=100.0,
                      inertia_const=28.0, marginal_cost=35.0, no_load_cost=250.0,
                      startup_cost=900.0, min_up=2, min_down=2, pfr_max=300.0,
                      emissions_rate=0.4),
        GeneratorSpec(id="flex", technology="thermal", p_max=400.0, p_min=80.0,
                      inertia_const=24.0, marginal_cost=55.0, no_load_cost=150.0,
                      startup_cost=400.0, min_up=1, min_down=1, pfr_max=280.0,
                      emissions_rate=0.5),
        GeneratorSpec(id="peak", technology="thermal", p_max=350.0, p_min=50.0,
                      inertia_const=14.0, marginal_cost=95.0, no_load_cost=80.0,
                      startup_cost=200.0, min_up=1, min_down=1, pfr_max=250.0,
                      emissions_rate=0.7),
    )


def toy_system(df_max=1.2, n_periods=6):
    fleet = toy_fleet()
    return SystemSpec(
        generators=fleet,
        demand_profile=DEMAND[:n_periods],
        wind_capacity=250.0,
        period_hours=1.0,
        frequency=FrequencyParams(
            f0=50.0, df_max=df_max, df_ss_max=df_max, rocof_max=1.0,
            t_d=4.0, damping=0.01,
            nadir_segments=default_segment_grid(500.0, 0.4),
            largest_unit_rating=500.0, largest_unit_inertia=6.0,
        ),
    )


def toy_tree(system, factors=(0.8, 0.5, 0.2), levels=(0.25, 0.5, 0.75)):
    net = [[d - system.wind_capacity * kappa * CAPACITY_FACTOR[t]
            for kappa in factors]
           for t, d in enumerate(system.demand_profile)]
    return ScenarioTree(net=net, probabilities=[1.0 / len(factors)] * len(factors),
                        quantile_levels=levels)


def one_branch(net):
    """A one-branch tree with net demand ``net``, one value per period."""
    return ScenarioTree(net=np.array(net, dtype=float)[:, None],
                        probabilities=(1.0,), quantile_levels=(0.5,))


def unit_index(system, unit_id):
    """Position of a unit in the fleet: its column in
    ``fixed_commitments``."""
    return [g.id for g in system.generators].index(unit_id)


def expected_costs(solution, system):
    """Each period's probability-weighted cost, from ``period_costs``."""
    no_load, startup, fuel = period_costs(solution, system)
    return no_load + startup + fuel @ solution.probabilities


def options(**kw):
    base = dict(frequency_constraints=True, horizon=6, first_stage=6,
                largest_loss_mode="fixed")
    base.update(kw)
    return UcOptions(**base)


def test_options_validation():
    with pytest.raises(SchedulerError):
        UcOptions(horizon=0)
    with pytest.raises(SchedulerError):
        UcOptions(horizon=4, first_stage=5)
    with pytest.raises(SchedulerError):
        UcOptions(largest_loss_mode="adaptive")


def test_build_creates_expected_structure():
    system = toy_system()
    tree = toy_tree(system)
    model = build_uc(system, tree, options())
    for gid in ("base", "mid", "flex", "peak"):
        assert f"x[{gid}][0]" in model.names
        assert f"su[{gid}][5]" in model.names
        assert f"p[{gid}][3][2]" in model.names
    assert "ploss[0][0]" in model.names
    # the commitments are the only binaries: the nadir rows are chords
    assert sorted(model.binary_indices()) == sorted(
        model.names.index(f"x[{gid}][{t}]")
        for gid in ("base", "mid", "flex", "peak") for t in range(6))
    labels = {row.label for row in model.rows}
    assert "nadir_cut[5][2][1]" in labels
    assert "balance[0][0]" in labels
    assert "rocof[5][2]" in labels
    assert "qss[2][1]" in labels
    assert "h_min[4]" in labels
    assert "cover[3]" in labels
    # the largest plant is committed in every period, and in fixed mode its
    # output is pinned at its rating by its bounds, with no row of its own
    for t in range(6):
        j = model.names.index(f"x[base][{t}]")
        assert model.lb[j] == model.ub[j] == 1.0
        for s in range(3):
            j = model.names.index(f"p[base][{t}][{s}]")
            assert model.lb[j] == model.ub[j] == 500.0
    assert not any(row.label.startswith(("fix_largest", "deload_floor"))
                   for row in model.rows)
    # optimised, its output may run down to the deload floor
    model = build_uc(system, tree, options(largest_loss_mode="optimised"))
    for t in range(6):
        for s in range(3):
            j = model.names.index(f"p[base][{t}][{s}]")
            assert (model.lb[j], model.ub[j]) == ((1.0 - 0.4) * 500.0, 500.0)
    assert not any(row.label.startswith(("fix_largest", "deload_floor"))
                   for row in model.rows)


def fewest_units(ratings, need):
    """Smallest number of ``ratings`` summing to ``need``, by enumeration."""
    for k in range(len(ratings) + 1):
        if any(sum(pick) >= need - 1e-9
               for pick in itertools.combinations(ratings, k)):
            return k
    raise AssertionError("the ratings cannot cover the need")


def assert_cover_rows_count_the_fewest_units(model, system, tree, opts):
    """Each ``cover[t]`` row asks exactly the more of two enumerated
    minimum numbers of non-largest commitments: the fewest whose ratings
    reach the need, and, with frequency constraints and a commitment still
    free, the fewest ``k`` whose most ratings, most inertia and most
    response, taken apart, carry the period's highest net demand and meet
    the security requirements at some loss, which is at most the fewest
    units of any secure set.  A period that needs none has no row.
    Returns each period's (capacity count, the security rows' count
    alone, security count)."""
    fleet, big = system.generators, largest_unit(system.generators)
    others = [g for g in fleet if g.id != big.id]
    floor = big.p_max * (1.0 - big.max_deload_fraction
                         if frequc.scheduler._largest_runs_deloaded(opts, big)
                         else 1.0)
    covers = {row.label: row for row in model.rows
              if row.label.startswith("cover[")}
    counts = []
    for t in range(tree.n_periods):
        net = tree.net[t].max()
        capacity = fewest_units([g.p_max for g in others], net - big.p_max)
        alone = security = 0
        commit = model.commit[t]
        if opts.frequency_constraints and (
                model.lb[commit] != model.ub[commit]).any():
            cell = (fleet, system.frequency, system.demand_profile[t], floor,
                    model.ub[commit], big)
            exact, security = fewest_secure_units(*cell, net=net)
            assert security <= exact
            alone = fewest_secure_units(*cell, net=None)[1]
        k = max(capacity, security)
        row = covers.pop(f"cover[{t}]", None)
        if k == 0:
            assert row is None
        else:
            assert row.sense == ">=" and row.rhs == k
            assert row.coeffs == {
                model.names.index(f"x[{g.id}][{t}]"): 1.0
                for g in others}
        counts.append((capacity, alone, security))
    assert not covers
    return counts


def without_cover_rows(model):
    bare = MilpModel(model.name)
    bare.add_variables(model.names, model.lb, model.ub,
                       model.integrality.astype(bool))
    for row in model.rows:
        if not row.label.startswith("cover["):
            bare.add_row(row.coeffs, row.sense, row.rhs, row.label)
    bare.set_objective(model.objective)
    assert bare.n_rows == model.n_rows - sum(
        row.label.startswith("cover[") for row in model.rows)
    return bare


def test_cover_rows_count_the_fewest_units():
    system = toy_system()
    tree = toy_tree(system)
    opts = options()
    model = build_uc(system, tree, opts)
    # (capacity count, the security rows' count alone, security count)
    # per period: the security rows alone ask for two of the three others
    # where capacity asks for one or two; carrying the net demand less the
    # full-rated loss plus the response the nadir then needs takes all three
    assert assert_cover_rows_count_the_fewest_units(
        model, system, tree, opts) == [(1, 2, 3), (2, 2, 3), (2, 2, 3),
                                       (2, 2, 3), (2, 2, 3), (1, 2, 3)]
    # no wind: needs from none of the three others up to all of them, the
    # last exactly at their summed rating
    demand = (450.0, 900.0, 1000.0, 1400.0, 1650.0, 1700.0)
    calm = SystemSpec(generators=system.generators, demand_profile=demand,
                      wind_capacity=0.0, period_hours=1.0,
                      frequency=system.frequency)
    flat = one_branch(demand)
    opts = options(largest_loss_mode="optimised")
    model = build_uc(calm, flat, opts)
    # at 450 MW one other unit carries the net demand securely; from 900 MW
    # on, two cannot: they would carry the net demand less the loss plus a
    # response of at least the loss less its damping relief (the QSS row,
    # 10.8 MW at 900 MW), 889.2 MW, beyond their 850 MW
    assert assert_cover_rows_count_the_fewest_units(
        model, calm, flat, opts) == [(0, 1, 1), (1, 1, 3), (2, 1, 3),
                                     (3, 1, 3), (3, 1, 3), (3, 1, 3)]
    # without frequency constraints the rows ask only for capacity
    opts = options(frequency_constraints=False, largest_loss_mode="optimised")
    model = build_uc(calm, flat, opts)
    assert assert_cover_rows_count_the_fewest_units(
        model, calm, flat, opts) == [(0, 0, 0), (1, 0, 0), (2, 0, 0),
                                     (3, 0, 0), (3, 0, 0), (3, 0, 0)]


def assert_same_optimum(model, exhaustive=False):
    gap = branch_bound.OPT_GAP
    with_rows = solve(model)
    bare = solve(without_cover_rows(model))
    assert with_rows.status == bare.status
    if with_rows.status != "optimal":
        return with_rows.status
    scale = max(abs(with_rows.objective), abs(bare.objective))
    assert abs(with_rows.objective - bare.objective) <= gap * scale
    if exhaustive:
        oracle = solve_exhaustive(model)
        assert oracle.status == "optimal"
        assert abs(with_rows.objective - oracle.objective) <= gap * scale
    return with_rows.status


def test_cover_rows_keep_the_toy_optimum():
    system = toy_system()
    tree = toy_tree(system)
    for mode in ("fixed", "optimised"):
        model = build_uc(system, tree, options(largest_loss_mode=mode))
        assert any(row.label.startswith("cover[") for row in model.rows)
        assert assert_same_optimum(model) == "optimal"


def random_small_window(rng):
    """A 3-4 unit fleet (the largest may deload), 1-3 branches, 2 periods."""
    big_max = float(rng.integers(30, 51)) * 10.0
    deload = float(rng.choice([0.0, 0.2, 0.4]))
    units = [GeneratorSpec(
        id="g0", technology="thermal", p_max=big_max, p_min=0.1 * big_max,
        inertia_const=float(rng.integers(2, 9)), marginal_cost=10.0,
        no_load_cost=float(rng.integers(0, 300)),
        deloadable=deload > 0.0, max_deload_fraction=deload)]
    for i in range(1, int(rng.integers(3, 5))):
        p_max = float(rng.choice([0.3, 0.5, 0.7, 0.9])) * big_max
        units.append(GeneratorSpec(
            id=f"g{i}", technology="thermal", p_max=p_max,
            p_min=float(rng.choice([0.0, 0.2])) * p_max,
            inertia_const=float(rng.choice([10.0, 20.0, 40.0])),
            marginal_cost=float(rng.integers(20, 120)),
            no_load_cost=float(rng.integers(0, 300)),
            startup_cost=float(rng.integers(0, 500)),
            pfr_max=float(rng.choice([0.3, 0.6, 0.9])) * p_max))
    others = sum(g.p_max for g in units[1:])
    demand = [big_max + float(rng.uniform(0.1, 0.95)) * others
              for _ in range(2)]
    n_branches = int(rng.integers(1, 4))
    levels = {1: (0.5,), 2: (0.25, 0.75), 3: (0.1, 0.5, 0.9)}[n_branches]
    table = np.array([sorted(d * (1.0 - float(rng.uniform(0.0, 0.3)))
                             for _ in range(n_branches)) for d in demand])
    grid = default_segment_grid(big_max, deload)
    system = SystemSpec(
        generators=tuple(units), demand_profile=tuple(demand),
        wind_capacity=100.0, period_hours=1.0,
        frequency=FrequencyParams(
            f0=50.0, df_max=1.0, df_ss_max=1.0, rocof_max=2.0, t_d=1.0,
            damping=float(rng.uniform(0.0, 0.9)) * grid[0] / max(demand),
            nadir_segments=grid, largest_unit_rating=big_max,
            largest_unit_inertia=units[0].inertia_const))
    return system, build_scenario_tree(levels, table)


def test_cover_rows_keep_random_optima():
    """On seeded small windows (at most 8 binaries) the cover rows remove
    no optimum: HiGHS with and without them, and enumeration, agree.  Each
    window is secured in both modes and unsecured in one; some ask for
    more units for security than for capacity, and some, for carrying the
    net demand securely, more than either count alone."""
    rng = np.random.default_rng(17)
    statuses, beyond, energy = [], 0, 0
    for k in range(12):
        system, tree = random_small_window(rng)
        for mode, secured in (("fixed", True), ("optimised", True),
                              (("fixed", "optimised")[k % 2], False)):
            opts = options(horizon=2, first_stage=2,
                           frequency_constraints=secured,
                           largest_loss_mode=mode)
            model = build_uc(system, tree, opts)
            counts = assert_cover_rows_count_the_fewest_units(
                model, system, tree, opts)
            statuses.append(assert_same_optimum(model, exhaustive=True))
            assert max(map(max, counts)) > 0
            beyond += any(security > capacity
                          for capacity, _, security in counts)
            energy += any(security > max(capacity, alone)
                          for capacity, alone, security in counts)
    assert statuses.count("optimal") >= 24 and beyond >= 3 and energy >= 3


def test_frequency_off_omits_security_machinery():
    system = toy_system()
    tree = toy_tree(system)
    model = build_uc(system, tree, options(frequency_constraints=False))
    assert "ploss[0][0]" not in model.names
    assert "z[mid][0][0]" not in model.names
    for row in model.rows:
        assert not row.label.startswith(("rocof", "qss", "nadir", "loss_bound"))


def test_window_screens_reject_bad_data():
    system = toy_system()
    # net demand above the dispatchable fleet
    sick = one_branch((1800.0,) * 6)
    with pytest.raises(SchedulerError, match="exceeds dispatchable capacity"):
        build_uc(system, sick, options())
    # net demand above demand means negative wind availability
    inflated = one_branch((1200.0, 1100.0, 1150.0, 1200.0, 1100.0, 1000.0))
    with pytest.raises(SchedulerError, match="negative wind"):
        build_uc(system, inflated, options())
    # the first offending cell in (period, branch) order is named, and the
    # capacity screen first within a cell; cells before the window's start
    # are not read
    tree = toy_tree(system)
    net = np.array(tree.net)
    net[1, 2] = 1100.0   # above demand 1000
    net[2, 0] = 1800.0   # above demand and capacity
    net[2, 1] = 1120.0   # above demand 1100
    bad = replace(tree, net=net)
    for start, message in (
            (0, "period 1, branch 2: net demand 1100.0 MW exceeds demand "
                "1000.0 MW"),
            (2, "period 2, branch 0: net demand 1800.0 MW exceeds "
                "dispatchable capacity 1700.0 MW")):
        with pytest.raises(SchedulerError, match=message):
            build_uc(system, bad, options(frequency_constraints=False),
                     start_period=start)


def test_deload_floor_needs_room_under_demand():
    fleet = toy_fleet()
    system = SystemSpec(
        generators=fleet, demand_profile=(450.0, 900.0), wind_capacity=0.0,
        period_hours=1.0,
        frequency=toy_system(n_periods=2).frequency,
    )
    tree = one_branch((450.0, 900.0))
    with pytest.raises(SchedulerError, match="largest plant minimum"):
        build_uc(system, tree, options(horizon=2, first_stage=2))


def test_initial_state_carry_and_conflicts():
    system = toy_system()
    tree = toy_tree(system)
    on, hours = default_initial_state(system)
    assert on.tolist() == [False] * 4 and hours.tolist() == [10_000] * 4
    on[unit_index(system, "mid")] = True
    hours[unit_index(system, "mid")] = 1
    state = on, hours
    # without security rows only the carry pins mid, for one period
    model = build_uc(system, tree, options(frequency_constraints=False),
                     initial_state=state)
    j = model.names.index("x[mid][0]")
    assert model.lb[j] == model.ub[j] == 1.0
    j = model.names.index("x[mid][1]")
    assert (model.lb[j], model.ub[j]) == (0.0, 1.0)
    # with them mid is a security must-run unit in every period
    model = build_uc(system, tree, options(), initial_state=state)
    for t in range(6):
        j = model.names.index(f"x[mid][{t}]")
        assert model.lb[j] == model.ub[j] == 1.0

    # pinning the largest plant off contradicts the must-run requirement
    pins = np.ones((6, len(system.generators)))
    pins[:, unit_index(system, "base")] = 0
    with pytest.raises(SchedulerError, match="conflict"):
        build_uc(system, tree, options(), fixed_commitments=pins)


BAD_STATE = r"initial state must be a pair \(on, hours\) of 4 values each"
BAD_SCHEDULE = "fixed commitments of shape {} do not hold finite values"


@pytest.mark.parametrize("state, fixed, message", [
    # a carried state: a pair (on, hours) of per-unit arrays
    (({}, [1] * 4), None, BAD_STATE),
    (([0] * 4,), None, BAD_STATE),
    (([0] * 3, [5] * 3), None, BAD_STATE),
    (([0] * 4, [[5] * 4]), None, BAD_STATE),
    (([0, 0, 2, 0], [5] * 4), None, BAD_STATE),
    (([0, np.nan, 0, 0], [5] * 4), None, BAD_STATE),
    (([0] * 4, [5, 1.5, 5, 5]), None, BAD_STATE),
    (([0] * 4, [5, 5, -1, 5]), None, BAD_STATE),
    (([0] * 4, [5, 5, 5, np.nan]), None, BAD_STATE),
    (([0] * 4, [5, 5, 5, np.inf]), None, BAD_STATE),
    # a pinned schedule: (T, units) values, each 0 or 1 after rounding
    (None, np.ones((5, 4)), BAD_SCHEDULE.format(r"\(5, 4\)")),
    (None, np.ones((6, 3)), BAD_SCHEDULE.format(r"\(6, 3\)")),
    (None, np.ones(24), BAD_SCHEDULE.format(r"\(24,\)")),
    (None, [[1] * 4] * 5 + [[1] * 3], BAD_SCHEDULE.format(r"\(\)")),
    (None, [[1, 1, np.nan, 1]] * 6, BAD_SCHEDULE.format(r"\(6, 4\)")),
    (None, [[1] * 4] * 5 + [[1, 1, 1, -np.inf]],
     BAD_SCHEDULE.format(r"\(6, 4\)")),
    (None, [[1, 2, 1, 1]] * 6,
     r"conflict: variable x\[mid\]\[0\]: cannot fix to 2.0"),
])
def test_malformed_state_or_schedule_is_an_input_error(state, fixed, message):
    """A carried state or pinned schedule that is not 0/1 values and whole
    hours of the right shapes raises SchedulerError."""
    system = toy_system()
    tree = toy_tree(system)
    with pytest.raises(SchedulerError, match=message):
        build_uc(system, tree, options(), initial_state=state,
                 fixed_commitments=fixed)
    if state is not None:
        with pytest.raises(SchedulerError, match=message):
            solve_rolling_horizon(system, tree, options(horizon=2,
                                                        first_stage=1),
                                  initial_state=state)


def test_must_run_pins_leave_a_held_off_unit_off(monkeypatch):
    """ccgt1 has just stopped and must stay off for two periods.  In fixed
    mode the security rows need it on, so its first periods are short and
    the screen pins every unit, ccgt1 included; the pin only writes the
    commitments still free, so the window is infeasible, not malformed."""
    system = load_system(DATA / "toy_system.yaml")
    tree = build_scenario_tree(
        *load_scenario_table(DATA / "toy_scenarios.txt"))
    on, hours = default_initial_state(system)
    held = unit_index(system, "ccgt1")
    assert system.generators[held].min_down == 2
    hours[held] = 0
    opts = UcOptions(horizon=4, first_stage=4, largest_loss_mode="fixed")
    pins = []
    real_must_run = frequc.scheduler.freqsec.must_run

    def recording(*args, **kwargs):
        pins.append(real_must_run(*args, **kwargs))
        return pins[-1]

    monkeypatch.setattr(frequc.scheduler.freqsec, "must_run", recording)
    # a pin written over the held-off unit's bounds would empty them, and
    # the solve would raise ModelError
    solution, model, raw = solve_uc(system, tree, opts,
                                    initial_state=(on, hours))
    assert solution is None and raw.status == "infeasible"
    assert pins[0][held] and pins[1][held]
    commit = model.commit[:, held]
    assert (model.lb[commit] == model.ub[commit]).tolist() == [True] * 4
    assert model.ub[commit].tolist() == [0.0, 0.0, 1.0, 1.0]


def test_solved_window_respects_balance_and_limits():
    system = toy_system()
    tree = toy_tree(system)
    opts = options(horizon=3, first_stage=3)
    solution, model, raw = solve_uc(system, tree, opts)
    assert raw.status == "optimal"
    for t in range(3):
        for s in range(3):
            served = solution.output[t, :, s].sum() + solution.wind_used[t, s]
            assert served == pytest.approx(system.demand_profile[t], abs=1e-6)
            assert solution.curtailment[t, s] >= -1e-9
            for i, g in enumerate(system.generators):
                x = solution.commit[t, i]
                pv = solution.output[t, i, s]
                rv = solution.pfr[t, i, s]
                assert pv >= g.p_min * x - 1e-6
                assert pv + rv <= g.p_max * x + 1e-6
                assert rv <= g.pfr_max * x + 1e-6


def test_loss_variable_covers_every_unit_output():
    system = toy_system()
    tree = toy_tree(system)
    solution, _, _ = solve_uc(system, tree, options(horizon=3, first_stage=3))
    inertia = committed_inertia(system, solution.commit)
    for t in range(3):
        for s in range(3):
            biggest = solution.output[t, :, s].max()
            assert solution.loss[t, s] >= biggest - 1e-6
            held = inertia[t] * solution.pfr[t, :, s].sum()
            need = nadir_requirement(solution.loss[t, s], system.frequency,
                                     solution.demand[t])
            assert held >= need - 1e-6 * max(1.0, abs(need))


def test_fixed_mode_pins_largest_at_rating():
    system = toy_system()
    tree = toy_tree(system)
    solution, _, _ = solve_uc(system, tree,
                              options(horizon=3, first_stage=3,
                                      largest_loss_mode="fixed"))
    assert system.generators[0].id == "base"
    assert np.allclose(solution.output[:, 0], 500.0, atol=1e-6)


def test_optimised_mode_deloads_only_within_the_band():
    system = toy_system()
    tree = toy_tree(system)
    solution, _, _ = solve_uc(system, tree,
                              options(horizon=3, first_stage=3,
                                      largest_loss_mode="optimised"))
    assert system.generators[0].id == "base"
    assert np.all(solution.output[:, 0] >= 300.0 - 1e-6)
    assert np.all(solution.output[:, 0] <= 500.0 + 1e-6)
    assert np.all(solution.commit[:, 0] == 1.0)


def test_optimised_mode_never_costs_more():
    system = toy_system()
    tree = toy_tree(system)
    fixed, _, _ = solve_uc(system, tree, options(largest_loss_mode="fixed"))
    opt, _, _ = solve_uc(system, tree, options(largest_loss_mode="optimised"))
    assert opt.expected_cost <= fixed.expected_cost + 1e-6 * fixed.expected_cost


def test_commitments_are_shared_across_branches():
    system = toy_system()
    tree = toy_tree(system)
    solution, model, _ = solve_uc(system, tree, options(horizon=3, first_stage=3))
    # one commitment variable per unit and period, none indexed by branch
    assert solution.commit.shape == (3, 4)
    assert solution.output.shape == (3, 4, 3)
    for g in system.generators:
        assert f"x[{g.id}][0][0]" not in model.names
    # recourse reacts to the branches
    spread = float(np.ptp(solution.output, axis=2).max())
    assert spread + float(np.ptp(solution.wind_used, axis=1).max()) > 1.0


def test_dropping_frequency_rows_never_raises_cost():
    system = toy_system()
    tree = toy_tree(system)
    secured, _, _ = solve_uc(system, tree, options())
    relaxed, _, _ = solve_uc(system, tree, options(frequency_constraints=False))
    assert relaxed.expected_cost <= secured.expected_cost + 1e-6 * secured.expected_cost


def test_expected_cost_decomposes():
    system = toy_system()
    tree = toy_tree(system)
    solution, _, _ = solve_uc(system, tree, options(horizon=4, first_stage=4))
    no_load, startup, fuel = period_costs(solution, system)
    assert no_load.shape == startup.shape == (4,) and fuel.shape == (4, 3)
    total = (no_load.sum() + startup.sum()
             + float(solution.probabilities @ fuel.sum(axis=0)))
    assert total == pytest.approx(solution.expected_cost, rel=1e-9)


def test_secured_window_passes_swing_verification():
    system = toy_system()
    tree = toy_tree(system)
    solution, _, _ = solve_uc(system, tree, options())
    report = verify_solution(solution, system)
    assert len(report.checks) == 18
    assert report.ok, [
        (c.period, c.scenario) for c in report.failures()
    ]


def test_settled_limit_secures_the_60s_deviation():
    """With df_ss_max < df_max the QSS row tightens its limit, so a slow
    recovery from a nadir between the two limits still clears the 60-s
    check.  The settled-deviation row alone left a -2.6e-6 Hz margin here.
    """
    system, tree = settled_limit_window()
    solution, _, raw = solve_uc(system, tree, options(
        horizon=2, first_stage=2, largest_loss_mode="optimised"))
    assert raw.status == "optimal"
    report = verify_solution(solution, system, tol=1e-6)
    assert report.ok, [(c.period, c.scenario) for c in report.failures()]
    first = report.checks[0]
    assert (first.inertia, first.loss) == (228.0, 300.0)
    assert first.report.qss_margin > 1e-6


def test_zero_damping_response_clears_the_loss():
    """Without damping any R < loss diverges, so the QSS row holds R a
    margin above the loss; at R = loss - 1 ulp this cell failed the check
    although its 60-s margin is +0.3 Hz."""
    units = (
        GeneratorSpec(id="g0", technology="thermal", p_max=360.0,
                      inertia_const=2.0, marginal_cost=10.0, deloadable=True,
                      max_deload_fraction=0.2),
        GeneratorSpec(id="g1", technology="thermal", p_max=252.0,
                      inertia_const=10.0, marginal_cost=20.0, pfr_max=75.6),
        GeneratorSpec(id="g2", technology="thermal", p_max=324.0,
                      inertia_const=10.0, marginal_cost=20.0, pfr_max=194.4),
        GeneratorSpec(id="g3", technology="thermal", p_max=324.0,
                      inertia_const=10.0, marginal_cost=20.0, pfr_max=97.2),
    )
    system = SystemSpec(
        generators=units, demand_profile=(540.0,), wind_capacity=100.0,
        period_hours=1.0,
        frequency=FrequencyParams(
            f0=50.0, df_max=0.8, df_ss_max=0.8, rocof_max=1.0, t_d=1.0,
            damping=0.0, nadir_segments=default_segment_grid(360.0, 0.2),
            largest_unit_rating=360.0, largest_unit_inertia=2.0))
    tree = build_scenario_tree((0.5,), np.array([[540.0]]))
    solution, _, raw = solve_uc(system, tree, options(
        horizon=1, first_stage=1, largest_loss_mode="optimised"))
    assert raw.status == "optimal"
    report = verify_solution(solution, system, tol=1e-6)
    assert report.ok, [(c.period, c.scenario) for c in report.failures()]
    cell = report.checks[0]
    assert cell.pfr > cell.loss
    assert cell.report.qss_ok and cell.report.qss_margin > 0.29


def bundled_window(wind=3000.0, periods=24):
    """The bundled system and tree, scaled to ``wind`` and cut to their
    first ``periods``."""
    base = load_system(DATA / "toy_system.yaml")
    base = replace(base, demand_profile=base.demand_profile[:periods])
    levels, table = load_scenario_table(DATA / "toy_scenarios.txt")
    tree = build_scenario_tree(levels, table[:periods])
    return _scale_wind(base, tree, wind)


def test_bundled_window_formulation_size():
    """The optimised 12 x 7 window stays compact: 37,516 nonzeros with a
    big-M pair of rows per unit and every response repeated in each
    chord, under 20,000 with the summed response and one product, and
    with one cover row over the seven other units per period."""
    system, tree = bundled_window()
    model = build_uc(system, tree, UcOptions(horizon=12, first_stage=12))
    nnz = sum(len(row.coeffs) for row in model.rows)
    assert nnz <= 20_000
    covers = [row for row in model.rows if row.label.startswith("cover[")]
    assert len(covers) == 12 and all(len(row.coeffs) == 7 for row in covers)
    assert len(model.binary_indices()) == 8 * 12
    assert not any(row.label.startswith("bigm_lo") for row in model.rows)
    # one loss source per cell: every other unit stays under the floor
    assert sum(row.label.startswith("loss_bound") for row in model.rows) \
        == 12 * 7
    # the largest unit is always on: no auxiliary for it
    assert "z[lignite1][0][0]" not in model.names
    assert "z[ccgt1][0][0]" in model.names


def test_redispatch_window_has_no_product_auxiliaries():
    """With every commitment pinned, H(x) is a constant: no z, no big-M."""
    system, tree = bundled_window()
    pins = np.ones((2, len(system.generators)))
    model = build_uc(system, tree, UcOptions(horizon=2, first_stage=2),
                     fixed_commitments=pins)
    assert not any(name.startswith("z[") for name in model.names)
    assert not any(row.label.startswith(("bigm_", "hyp_cut"))
                   for row in model.rows)
    assert "hr[0][0]" in model.names
    assert solve(model).status == "optimal"


def test_redispatch_is_solved_as_an_lp(monkeypatch):
    """A re-dispatch pins every binary, so HiGHS solves it as an LP: no
    nodes, its optimum is its own bound, and it matches the oracle."""
    real_run = branch_bound.run_highs
    integrality = []

    def recording_run(compiled, integers, basis=None):
        integrality.append(np.array(integers))
        return real_run(compiled, integers, basis)

    monkeypatch.setattr(branch_bound, "run_highs", recording_run)
    system, tree = bundled_window()
    window, _, _ = solve_uc(system, tree, UcOptions(horizon=2, first_stage=2))
    median = one_branch(realized_series(tree))
    model = build_uc(system, median, UcOptions(horizon=2, first_stage=2),
                     fixed_commitments=window.commit)
    assert all(model.lb[j] == model.ub[j]
               for j in model.binary_indices())
    assert model.binary_indices()
    del integrality[:]
    got = solve(model)
    assert len(integrality) == 1 and not integrality[0].any()
    assert got.status == "optimal" and not got.violations
    assert got.nodes == 0
    assert got.bound == got.objective
    oracle = solve_exhaustive(model)
    assert oracle.status == "optimal"
    assert abs(got.objective - oracle.objective) <= 1e-9 * abs(oracle.objective)


# -- warm starts within a rolling run -----------------------------------------


def recording_highs(monkeypatch):
    """Patch ``run_highs`` to record each call as ``(layout, mip, basis
    given, status, basis returned)``."""
    calls = []
    real_run = branch_bound.run_highs

    def recording_run(compiled, integrality, basis=None):
        sol = real_run(compiled, integrality, basis)
        calls.append((compiled.model.layout, bool(integrality.any()), basis,
                      sol.status, sol.basis))
        return sol

    monkeypatch.setattr(branch_bound, "run_highs", recording_run)
    return calls


@pytest.mark.parametrize("mode", LOSS_MODES)
@pytest.mark.parametrize("wind", [700.0, 3000.0])
def test_warm_started_run_matches_cold_windows(monkeypatch, wind, mode):
    """Each window and re-dispatch of a rolling run over the bundled day,
    its LPs started from the run's last basis of the same layout, has the
    objective and commitments of the same window solved cold."""
    system, tree = bundled_window(wind)
    opts = UcOptions(horizon=2, first_stage=2, largest_loss_mode=mode)
    solved = []
    real_solve_uc = frequc.scheduler.solve_uc

    def recording_solve_uc(*args, **kwargs):
        got = real_solve_uc(*args, **kwargs)
        solved.append((args, kwargs, got[0]))
        return got

    with monkeypatch.context() as patch:
        highs = recording_highs(patch)
        patch.setattr(frequc.scheduler, "solve_uc", recording_solve_uc)
        assert solve_rolling_horizon(system, tree, opts).ok
    assert len(solved) == 24
    # every layout's LPs after its first start warm
    assert sum(basis is not None for _, _, basis, *_ in highs) \
        >= sum(not mip for _, mip, *_ in highs) \
        - len({layout for layout, *_ in highs}) > 0
    for args, kwargs, warm in solved:
        assert kwargs["layouts"] is not None
        cold, _, _ = solve_uc(*args, **dict(kwargs, layouts=None))
        assert warm.expected_cost == pytest.approx(cold.expected_cost,
                                                   rel=1e-9, abs=0)
        assert np.array_equal(warm.commit, cold.commit)


def test_each_lp_starts_from_the_last_basis_of_its_layout(monkeypatch):
    """Within a rolling run every LP after the first of its layout starts
    from the basis that the layout's last LP returned; the first LP of a
    layout, and every MILP, starts cold.  Two runs share no layout, so no
    basis crosses layouts or runs."""
    system, tree = bundled_window(3000.0)
    opts = UcOptions(horizon=2, first_stage=2)
    calls = recording_highs(monkeypatch)
    runs = []
    for _ in range(2):
        start = len(calls)
        assert solve_rolling_horizon(system, tree, opts).ok
        runs.append(calls[start:])
    first, second = ({layout for layout, *_ in run} for run in runs)
    assert len(first) > 1 and not first & second
    for run in runs:
        last = {}
        for layout, mip, given, status, basis in run:
            if mip:
                assert given is None and basis is None
                continue
            assert given is last.get(layout)
            assert status == "optimal" and basis is not None
            last[layout] = basis
        assert len(last) == len({layout for layout, *_ in run})


def test_warm_started_relaxations_take_fewer_iterations():
    """The relaxations of the bundled secured 2 x 7 windows of a rolling
    run, each started from the last basis of its layout, take fewer
    simplex iterations in total than the same relaxations started cold."""
    system, tree = bundled_window(3000.0)
    opts = UcOptions(horizon=2, first_stage=2)
    layouts = WindowLayouts(system)
    state = default_initial_state(system)
    warm = cold = 0
    for t0 in range(0, 24, 2):
        model = build_uc(system, tree, opts, start_period=t0,
                         initial_state=state, layouts=layouts)
        assert model.net.shape == (2, 7)
        compiled = model.compile()
        relaxed = np.zeros_like(compiled.integrality)
        basis = layouts.bases.get(model.layout)
        lp = branch_bound.run_highs(compiled, relaxed, basis)
        assert lp.status == "optimal"
        layouts.bases[model.layout] = lp.basis
        warm += lp.iterations
        cold += branch_bound.run_highs(compiled, relaxed).iterations
        commit = np.round(solve(model).values[model.commit])
        state = _advance_state(state, commit)
    assert 0 < warm < cold


def test_infeasible_window_with_a_warm_basis_is_infeasible(monkeypatch):
    """A re-dispatch whose pins leave too little capacity, started from the
    basis of a feasible one of the same layout, is still infeasible."""
    system, tree = bundled_window(3000.0)
    opts = UcOptions(frequency_constraints=False, horizon=2, first_stage=2)
    layouts = WindowLayouts(system)
    pins = np.ones((2, len(system.generators)))
    fed, fed_model, fed_raw = solve_uc(system, tree, opts,
                                       fixed_commitments=pins,
                                       layouts=layouts)
    assert fed is not None and fed_raw.basis is not None
    pins[:, :] = 0.0
    pins[:, unit_index(system, largest_unit(system.generators).id)] = 1.0
    calls = recording_highs(monkeypatch)
    solution, model, raw = solve_uc(system, tree, opts,
                                    fixed_commitments=pins, layouts=layouts)
    assert model.layout is fed_model.layout
    assert [(mip, basis) for _, mip, basis, *_ in calls] == \
        [(False, fed_raw.basis)]
    assert solution is None
    assert raw.status == "infeasible" and raw.values is None
    assert solve(model).status == "infeasible"


def test_unsecured_window_fails_when_security_is_unattainable():
    system = toy_system(df_max=0.3)
    tree = toy_tree(system)
    opts = options(frequency_constraints=False)
    solution, _, _ = solve_uc(system, tree, opts)
    report = verify_solution(solution, system)
    assert not report.ok


def test_infeasible_security_is_reported_not_hidden():
    system = toy_system(df_max=0.3)
    tree = toy_tree(system)
    solution, _, raw = solve_uc(system, tree, options(horizon=2, first_stage=2))
    assert solution is None
    assert raw.status == "infeasible"
    run = solve_rolling_horizon(system, toy_tree(system),
                                options(horizon=2, first_stage=2))
    assert not run.ok
    assert run.status == "solver"
    assert "period 0" in run.message


def test_minimum_up_time_rows_bind():
    system = toy_system()
    tree = toy_tree(system)
    opts = options(frequency_constraints=False)
    pins = np.ones((6, len(system.generators)))
    mid = unit_index(system, "mid")
    pins[:, mid] = [0, 0, 1, 0, 0, 0]   # a single-period visit breaks min_up=2
    model = build_uc(system, tree, opts, fixed_commitments=pins)
    assert solve(model).status == "infeasible"
    pins[:, mid] = [0, 0, 1, 1, 0, 0]
    model = build_uc(system, tree, opts, fixed_commitments=pins)
    assert solve(model).status == "optimal"


def test_windows_read_the_tree_by_profile_period():
    """A window reads the profile-long tree's rows from its start, up to
    its horizon or the profile's end, and cannot write to them."""
    system = toy_system()
    tree = toy_tree(system)
    opts = options(frequency_constraints=False, horizon=3, first_stage=3)
    model = build_uc(system, tree, opts, start_period=2)
    assert model.periods.tolist() == [2, 3, 4]
    assert np.array_equal(model.net, tree.net[2:5])
    assert np.array_equal(model.demand, system.demand_profile[2:5])
    with pytest.raises(ValueError):
        model.net[0, 0] = 0.0
    tail = build_uc(system, tree, opts, start_period=4)
    assert tail.periods.tolist() == [4, 5]
    assert tail.name == "uc_p4_2x3"
    for start in (-1, 6):
        with pytest.raises(SchedulerError, match="outside the 6-period"):
            build_uc(system, tree, opts, start_period=start)
    short = replace(tree, net=tree.net[:5])
    with pytest.raises(SchedulerError, match="scenario tree covers 5 periods, "
                       "the demand profile 6"):
        build_uc(system, short, opts, start_period=2)
    with pytest.raises(SchedulerError, match="scenario tree covers 5 periods"):
        solve_rolling_horizon(system, short, opts)


def test_realized_series_is_the_median_path():
    system = toy_system()
    tree = toy_tree(system)
    assert realized_series(tree) == pytest.approx(tree.net[:, 1])


def test_realized_series_interpolates_without_median_level():
    tree = build_scenario_tree([0.25, 0.75], np.array([[1000.0, 1400.0]]))
    assert realized_series(tree) == pytest.approx([1200.0])


def test_advance_state_accumulates_runs():
    state = (np.array([True, False]), np.array([3, 2]))
    # columns a, b; rows the two committed periods
    on, hours = _advance_state(state, [[1, 1], [1, 0]])
    assert on.tolist() == [True, False] and hours.tolist() == [5, 1]
    on, hours = _advance_state((on, hours), [[0, 0], [0, 0]])
    assert on.tolist() == [False, False] and hours.tolist() == [2, 3]


def test_advance_state_matches_the_unit_loop():
    """Drawn schedules of 1 to 12 steps, with all-on and all-off runs that
    extend the carried hours or restart them."""
    rng = np.random.default_rng(19)
    extended = restarted = 0
    for _ in range(500):
        units, steps = int(rng.integers(1, 9)), int(rng.integers(1, 13))
        state = (rng.random(units) < 0.5, rng.integers(0, 30, units))
        commit = (rng.random((steps, units))
                  < rng.choice([0.0, 0.3, 0.7, 1.0], units)).astype(float)
        on, hours = _advance_state(state, commit)
        want_on, want_hours = advance_state_loop(state, commit)
        assert on.tolist() == want_on and hours.tolist() == want_hours
        same = (commit == commit[-1]).all(axis=0)
        extended += (same & (state[0] == on)).sum()
        restarted += (same & (state[0] != on)).sum()
    assert extended >= 200 and restarted >= 200


def test_rolling_run_covers_the_span():
    system = toy_system()
    tree = toy_tree(system)
    run = solve_rolling_horizon(system, tree, options(horizon=4, first_stage=2))
    assert run.ok
    assert len(run.windows) == 3
    traj = run.trajectory
    assert np.array_equal(traj.periods, np.arange(6))
    assert traj.output.shape == (6, 4, 1) and traj.probabilities.tolist() == [1.0]
    thermal = traj.output.sum(axis=1)[:, 0]
    served = thermal + traj.wind_used[:, 0]
    assert served == pytest.approx(np.array(system.demand_profile), abs=1e-6)
    assert np.array_equal(traj.net[:, 0], realized_series(tree))
    assert thermal == pytest.approx(
        realized_series(tree) + traj.curtailment[:, 0], abs=1e-6)
    assert expected_costs(traj, system).sum() == pytest.approx(
        traj.expected_cost, rel=1e-9)
    assert verify_trajectory(traj, system).ok


def test_single_window_rolling_matches_direct_solve():
    system = toy_system()
    tree = toy_tree(system)
    run = solve_rolling_horizon(system, tree, options())
    assert run.ok and len(run.windows) == 1
    direct, _, _ = solve_uc(system, tree, options())
    assert run.windows[0].expected_cost == pytest.approx(direct.expected_cost,
                                                         rel=1e-9)
    assert run.expected_cost == pytest.approx(direct.expected_cost, rel=1e-6)
    # committed periods re-dispatched at the median path stay on commitments
    assert np.array_equal(run.trajectory.commit, direct.commit)
    # the path's (T,) arrays are swing-checked as the one-branch
    # re-dispatch window they were cut from
    median = one_branch(realized_series(tree))
    redispatch, _, _ = solve_uc(system, median, options(),
                                fixed_commitments=direct.commit)
    assert (verify_trajectory(run.trajectory, system).checks
            == verify_solution(redispatch, system).checks)
    # without a loss variable the path is graded at its largest unit output
    off = solve_rolling_horizon(system, tree,
                                options(frequency_constraints=False))
    assert off.ok and np.isnan(off.trajectory.loss).all()
    checks = verify_trajectory(off.trajectory, system).checks
    assert [c.loss for c in checks] == [
        max(off.trajectory.output[t, :, 0])
        for t in range(len(off.trajectory.periods))]


def test_deterministic_rolling_matches_single_shot():
    system = toy_system()
    tree = one_branch([d - 40.0 for d in system.demand_profile])
    rolled = solve_rolling_horizon(system, tree, options(first_stage=1))
    assert rolled.ok and len(rolled.windows) == 6
    direct, _, _ = solve_uc(system, tree, options())
    assert rolled.trajectory.expected_cost == pytest.approx(
        direct.expected_cost, rel=1e-6)


def test_duplicate_branches_collapse_to_deterministic():
    system = toy_system()
    net = [d - 60.0 for d in system.demand_profile]
    single = one_branch(net)
    double = ScenarioTree(net=np.array([net, net]).T, probabilities=(0.4, 0.6),
                          quantile_levels=(0.3, 0.7))
    lone, _, _ = solve_uc(system, single, options())
    dup, _, _ = solve_uc(system, double, options())
    assert dup.expected_cost == pytest.approx(lone.expected_cost, rel=1e-6)


def test_cost_of_frequency_services_is_nonnegative():
    system = toy_system()
    tree = toy_tree(system)
    on = solve_rolling_horizon(system, tree, options())
    off = solve_rolling_horizon(system, tree, options(frequency_constraints=False))
    assert on.ok and off.ok
    value = on.expected_cost - off.expected_cost
    assert value >= -1e-6 * off.trajectory.expected_cost
    assert value > 0.0


def test_load_factor_and_emissions_read_the_trajectory():
    system = toy_system()
    tree = toy_tree(system)
    run = solve_rolling_horizon(system, tree, options(largest_loss_mode="fixed"))
    traj = run.trajectory
    assert load_factor(traj, system, "base") == pytest.approx(1.0, abs=1e-9)
    expected = sum(
        g.emissions_rate * traj.output[:, i].sum()
        for i, g in enumerate(system.generators)
    )
    assert emissions(traj, system) == pytest.approx(expected)
    with pytest.raises(KeyError):
        load_factor(traj, system, "ghost")


def recorded_rolling_run(monkeypatch, system, tree, opts):
    """A rolling run and every solution it extracted, in order: each
    window's, then its re-dispatch's."""
    extracted = []
    real = frequc.scheduler.extract_solution

    def recording(model, result):
        extracted.append(real(model, result))
        return extracted[-1]

    monkeypatch.setattr(frequc.scheduler, "extract_solution", recording)
    run = solve_rolling_horizon(system, tree, opts)
    monkeypatch.undo()
    assert run.ok and len(extracted) == 2 * len(run.windows)
    assert all(a is b for a, b in zip(extracted[::2], run.windows))
    return run, extracted[1::2]


@pytest.mark.parametrize("secured", [True, False])
def test_path_is_the_concatenated_redispatches(monkeypatch, secured):
    """Every field of a path joins its re-dispatches' along the period
    axis, and its swing checks are theirs, in order."""
    system = toy_system()
    run, redispatches = recorded_rolling_run(
        monkeypatch, system, toy_tree(system),
        options(horizon=4, first_stage=2, frequency_constraints=secured))
    path = run.trajectory
    assert len(redispatches) == 3
    for name in PERIOD_FIELDS:
        joined = np.concatenate([getattr(r, name) for r in redispatches])
        assert np.array_equal(getattr(path, name), joined, equal_nan=True), name
    assert np.array_equal(path.curtailment, np.concatenate(
        [r.curtailment for r in redispatches]))
    assert path.probabilities.tolist() == [1.0]
    assert path.expected_cost == sum(r.expected_cost for r in redispatches)
    assert path.nodes == sum(r.nodes for r in redispatches)
    assert path.gap == max(r.gap for r in redispatches)
    assert path.status == "optimal"
    assert verify_trajectory(path, system).checks == [
        check for r in redispatches
        for check in verify_solution(r, system).checks]


@pytest.mark.parametrize("mode", ["fixed", "optimised"])
@pytest.mark.parametrize("secured", [True, False])
def test_period_costs_sum_to_the_objective(monkeypatch, mode, secured):
    """On bundled rolling runs, every window's and re-dispatch's period
    costs, weighted by the branch probabilities, add up to HiGHS's
    objective: the objective and the post-solve formula agree."""
    system, tree = bundled_window(wind=1850.0, periods=8)
    run, redispatches = recorded_rolling_run(
        monkeypatch, system, tree,
        UcOptions(frequency_constraints=secured, horizon=4, first_stage=2,
                  largest_loss_mode=mode))
    solutions = run.windows + redispatches + [run.trajectory]
    assert len(solutions) == 9
    for solution in solutions:
        total = float(expected_costs(solution, system).sum())
        assert total > 0.0
        assert abs(total - solution.expected_cost) \
            <= 1e-9 * abs(solution.expected_cost)
    committed = sum(float(expected_costs(w, system)[:2].sum())
                    for w in run.windows)
    assert run.expected_cost == pytest.approx(committed, rel=1e-12)


def test_unit_sums_add_in_fleet_order():
    """Sums over the 8 bundled units add one unit at a time in fleet order,
    as a Python loop does; numpy's pairwise sum of 8 or more items differs
    in the last digits, which the printed tables would show."""
    system, tree = bundled_window(wind=1850.0, periods=4)
    run = solve_rolling_horizon(system, tree,
                                UcOptions(horizon=4, first_stage=2))
    assert run.ok and len(system.generators) == 8
    freq = system.frequency
    lost = freq.largest_unit_rating * freq.largest_unit_inertia / freq.f0
    for solution in run.windows + [run.trajectory]:
        no_load, startup, fuel = period_costs(solution, system)
        checks = iter(verify_solution(solution, system).checks)
        for t in range(len(solution.periods)):
            on = start = 0.0
            inertia = 0
            for i, g in enumerate(system.generators):
                on += g.no_load_cost * system.period_hours * solution.commit[t, i]
                start += g.startup_cost * solution.startup[t, i]
                if g.synchronous:
                    inertia += (g.inertia_const * g.p_max / freq.f0
                                * solution.commit[t, i])
            assert (no_load[t], startup[t]) == (on, start)
            for s in range(len(solution.probabilities)):
                burn = 0.0
                for i, g in enumerate(system.generators):
                    burn += (g.marginal_cost * system.period_hours
                             * solution.output[t, i, s])
                assert fuel[t, s] == burn
                check = next(checks)
                assert check.inertia == inertia - lost
                assert check.pfr == sum(float(r)
                                        for r in solution.pfr[t, :, s])
