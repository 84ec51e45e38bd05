"""Properties of solved windows on random small fleets and scenario trees,
and of the frequency cell's rows on random cells.

Each window example is a fleet of 2-4 synchronous units (the largest may
deload), 1-3 net-demand branches and 1-3 periods.  On every example the
array builder and the loop builder of ``reference.builder`` give the same
model.  Expected costs are
compared within the solver's relative MIP gap: a reported optimum lies at
most ``GAP`` of its own magnitude above the true one.
"""

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from frequc.freqsec import period_constants, period_rows, register_decisions
from frequc.milp import MilpModel
from frequc.scheduler import (
    LOSS_MODES,
    SchedulerError,
    UcOptions,
    UnitState,
    build_uc,
    solve_uc,
    verify_solution,
)
from frequc.sysmodel import (
    FrequencyParams,
    GeneratorSpec,
    SystemSpec,
    build_scenario_tree,
    default_segment_grid,
)
from reference.builder import assert_same_model, build_uc_loop

GAP = 1e-6  # SolveOptions().opt_gap
LEVELS = {1: (0.5,), 2: (0.25, 0.75), 3: (0.1, 0.5, 0.9)}

PROPERTY = settings(derandomize=True, database=None, max_examples=60,
                    deadline=None, suppress_health_check=[HealthCheck.too_slow])


def tens(lo, hi):
    return st.integers(lo, hi).map(lambda k: 10.0 * k)


@st.composite
def windows(draw, settled_shares=(0.5, 1.0), damping_shares=(0.0, 0.3, 0.9)):
    """A (system, scenario tree) pair the unsecured window can always serve.

    ``df_ss_max`` is one of ``settled_shares`` times ``df_max``; the damping
    is one of ``damping_shares`` times the damping that puts the nadir
    requirement's vertex on the first grid point.
    """
    big_max = draw(tens(30, 50))
    deload = draw(st.sampled_from([0.0, 0.2, 0.4]))
    units = [GeneratorSpec(
        id="g0", technology="thermal", p_max=big_max,
        p_min=draw(tens(0, 15)), inertia_const=draw(st.integers(2, 8)),
        marginal_cost=draw(tens(1, 4)), no_load_cost=draw(tens(0, 30)),
        deloadable=deload > 0.0, max_deload_fraction=deload)]
    for i in range(1, draw(st.integers(2, 4))):
        p_max = draw(st.sampled_from([0.5, 0.7, 0.9])) * big_max
        units.append(GeneratorSpec(
            id=f"g{i}", technology="thermal", p_max=p_max,
            p_min=draw(st.sampled_from([0.0, 0.1, 0.2])) * p_max,
            inertia_const=draw(st.sampled_from([10.0, 20.0, 40.0])),
            marginal_cost=draw(tens(2, 12)), no_load_cost=draw(tens(0, 30)),
            startup_cost=draw(tens(0, 50)),
            min_up=draw(st.integers(1, 2)), min_down=draw(st.integers(1, 2)),
            pfr_max=draw(st.sampled_from([0.3, 0.6, 0.9])) * p_max))
    n_periods = draw(st.integers(1, 3))
    n_branches = draw(st.integers(1, 3))
    others = sum(g.p_max for g in units[1:])
    demand = [big_max + draw(st.sampled_from([0.2, 0.5, 0.8])) * others
              for _ in range(n_periods)]
    table = np.array([
        sorted(d - draw(st.sampled_from([0.0, 0.1, 0.2, 0.3])) * d
               for _ in range(n_branches))
        for d in demand])
    grid = default_segment_grid(big_max, deload)
    df_max = draw(st.sampled_from([0.8, 1.5]))
    damping = (draw(st.sampled_from(damping_shares))
               * 2.0 * grid[0] / (max(demand) * df_max))
    system = SystemSpec(
        generators=tuple(units), demand_profile=tuple(demand),
        wind_capacity=100.0, period_hours=1.0,
        frequency=FrequencyParams(
            f0=50.0, df_max=df_max,
            df_ss_max=draw(st.sampled_from(settled_shares)) * df_max,
            rocof_max=draw(st.sampled_from([1.0, 2.0])),
            t_d=draw(st.sampled_from([1.0, 2.5])), damping=damping,
            nadir_segments=grid, largest_unit_rating=big_max,
            largest_unit_inertia=units[0].inertia_const))
    return system, build_scenario_tree(LEVELS[n_branches], table)


def settled_limit_window():
    """A window with df_ss_max < df_max, drawn by :func:`windows`, where
    the optimised schedule's slow recovery from a nadir between the two
    limits misses the 60-s check in period 0, by 2.6e-6 Hz, when the QSS
    row bounds only the settled deviation."""
    units = (
        GeneratorSpec(id="g0", technology="thermal", p_max=300.0,
                      inertia_const=2.0, marginal_cost=10.0, deloadable=True,
                      max_deload_fraction=0.2),
        GeneratorSpec(id="g1", technology="thermal", p_max=150.0,
                      inertia_const=10.0, marginal_cost=20.0, pfr_max=45.0),
        GeneratorSpec(id="g2", technology="thermal", p_max=150.0,
                      inertia_const=10.0, marginal_cost=20.0, pfr_max=45.0),
        GeneratorSpec(id="g3", technology="thermal", p_max=210.0,
                      inertia_const=40.0, marginal_cost=20.0, pfr_max=189.0),
    )
    grid = default_segment_grid(300.0, 0.2)
    system = SystemSpec(
        generators=units, demand_profile=(402.0, 555.0), wind_capacity=100.0,
        period_hours=1.0,
        frequency=FrequencyParams(
            f0=50.0, df_max=1.5, df_ss_max=0.75, rocof_max=1.0, t_d=2.5,
            damping=0.3 * 2.0 * grid[0] / (555.0 * 1.5), nadir_segments=grid,
            largest_unit_rating=300.0, largest_unit_inertia=2.0))
    tree = build_scenario_tree(LEVELS[2], np.array([[402.0] * 2, [555.0] * 2]))
    return system, tree


def solve_window(system, tree, mode, secured):
    options = UcOptions(frequency_constraints=secured, horizon=tree.n_periods,
                        first_stage=tree.n_periods, largest_loss_mode=mode)
    solution, _, raw = solve_uc(system, tree, options)
    assert raw.status in ("optimal", "infeasible"), raw.status
    return solution


def assert_secured_windows_pass_the_swing_check(system, tree):
    for mode in ("fixed", "optimised"):
        solution = solve_window(system, tree, mode, secured=True)
        if solution is not None:
            report = verify_solution(solution, system, tol=1e-6)
            assert report.ok, [(c.period, c.scenario) for c in report.failures()]


# Drawn with positive damping: the tightened QSS limit keeps the 60-s
# deviation inside df_ss_max, for df_ss_max below df_max too.  The drawn
# windows seldom reach a nadir between the two limits, so one that does
# is always run.
@PROPERTY
@given(windows(damping_shares=(0.3, 0.9)))
@example(settled_limit_window())
def test_secured_optimal_windows_pass_the_swing_check(window):
    assert_secured_windows_pass_the_swing_check(*window)


# Zero damping, df_ss_max = df_max: the QSS row holds R at least
# QSS_MARGIN above the loss.  Zero damping with df_ss_max < df_max is left
# out: that limit is not tightened there.
@settings(PROPERTY, max_examples=120)
@given(windows(settled_shares=(1.0,), damping_shares=(0.0,)))
def test_zero_damping_secured_windows_pass_the_swing_check(window):
    assert_secured_windows_pass_the_swing_check(*window)


@PROPERTY
@given(windows())
def test_security_never_lowers_expected_cost(window):
    system, tree = window
    for mode in ("fixed", "optimised"):
        unsecured = solve_window(system, tree, mode, secured=False)
        assert unsecured is not None
        secured = solve_window(system, tree, mode, secured=True)
        if secured is not None:
            assert (secured.expected_cost >= unsecured.expected_cost
                    - GAP * abs(unsecured.expected_cost))


@PROPERTY
@given(windows())
def test_optimised_never_costs_more_than_fixed(window):
    system, tree = window
    for secured in (True, False):
        fixed = solve_window(system, tree, "fixed", secured)
        optimised = solve_window(system, tree, "optimised", secured)
        if fixed is not None:
            assert optimised is not None
            assert (optimised.expected_cost <= fixed.expected_cost
                    + GAP * abs(optimised.expected_cost))


@PROPERTY
@given(windows(), st.data())
def test_array_builder_matches_the_loop_builder(window, data):
    """Same model from both builders, or the same error, in both modes,
    secured or not, from a drawn commitment state."""
    system, tree = window
    state = {g.id: UnitState(data.draw(st.booleans()),
                             data.draw(st.integers(0, 3)))
             for g in system.generators}
    for mode in LOSS_MODES:
        for secured in (True, False):
            options = UcOptions(frequency_constraints=secured,
                                horizon=tree.n_periods,
                                first_stage=tree.n_periods,
                                largest_loss_mode=mode)
            try:
                want = build_uc_loop(system, tree, options, start_period=0,
                                     initial_state=state)
            except SchedulerError as exc:
                try:
                    build_uc(system, tree, options, initial_state=state)
                except SchedulerError as got:
                    assert str(got) == str(exc)
                else:
                    raise AssertionError(f"array builder accepted: {exc}")
                continue
            assert_same_model(build_uc(system, tree, options,
                                       initial_state=state), want)


@st.composite
def cut_cells(draw):
    """A cell's rows and one of its commitment/loss points held exactly on
    (or a little above) the chord envelope: an integer-feasible point."""
    rating = draw(tens(30, 90))
    deload = draw(st.sampled_from([0.0, 0.2, 0.4]))
    floor = (1.0 - deload) * rating
    units = [GeneratorSpec(
        id="g0", technology="thermal", p_max=rating,
        inertia_const=draw(st.integers(2, 8)),
        deloadable=deload > 0.0, max_deload_fraction=deload)]
    for i in range(1, draw(st.integers(2, 4))):
        p_max = draw(st.sampled_from([0.5, 0.7, 0.9])) * rating
        units.append(GeneratorSpec(
            id=f"g{i}", technology="thermal", p_max=p_max,
            inertia_const=draw(st.sampled_from([4.0, 10.0, 20.0, 40.0])),
            pfr_max=draw(st.sampled_from([0.3, 0.6, 0.9])) * p_max))
    demand = draw(st.sampled_from([1.5, 3.0, 6.0])) * rating
    df_max = draw(st.sampled_from([0.5, 0.8, 1.5]))
    # the requirement's root D * demand * df_max, as a multiple of the
    # floor: up to twice it, where the grid check stops
    root_share = draw(st.sampled_from([0.0, 0.3, 0.9, 1.2, 1.6, 1.99]))
    freq = FrequencyParams(
        f0=50.0, df_max=df_max, df_ss_max=df_max, rocof_max=1.0,
        t_d=draw(st.sampled_from([1.0, 2.5, 10.0])),
        damping=root_share * floor / (demand * df_max),
        nadir_segments=default_segment_grid(rating, deload),
        largest_unit_rating=rating, largest_unit_inertia=units[0].inertia_const)
    model = MilpModel()
    commit = [model.add_binary(f"x[{g.id}]") for g in units]
    model.fix_variable(commit[0], 1.0)
    r_max = sum(g.pfr_max for g in units)
    constants = period_constants(units, freq, demand)
    cell = register_decisions(
        model, units, freq, constants, r_max, period=0, commit=commit,
        output=[[model.add_continuous(f"p[{g.id}]", 0.0, g.p_max)
                 for g in units]],
        pfr=[[model.add_continuous(f"r[{g.id}]", 0.0, g.pfr_max)
              for g in units]])
    model.add_block(period_rows(cell, units, freq, constants, r_max,
                                largest=units[0], loss_floor=floor))
    rows = list(model.rows)
    values = np.zeros(model.n_vars)
    values[commit[0]] = 1.0
    for i in range(1, len(units)):
        values[commit[i]] = float(draw(st.booleans()))
    values[cell.loss[0]] = (floor + draw(st.integers(0, 20)) / 20.0
                            * (rating - floor))
    return model, cell, units, freq, rows, values, r_max, draw(
        st.sampled_from([0.0, 1e-3, 0.1, 1.0]))


def activity(row, values) -> float:
    return float(sum(c * values[j] for j, c in row.coeffs.items()))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(cut_cells())
def test_hyperbolic_cuts_keep_every_integer_feasible_point(cell):
    model, cells, units, freq, rows, values, r_max, slack = cell
    loss, response = int(cells.loss[0]), int(cells.R[0])
    # H(x): the inertia floor row H(x) >= 0 read as an expression
    [floor] = [row for row in rows if row.label.startswith("h_min")]
    h = activity(floor, values) - floor.rhs
    assume(h > 0.0)
    p = values[loss]
    chords = [row for row in rows if row.label.startswith("nadir_cut")]
    envelope = max([0.0] + [row.rhs + row.coeffs.get(loss, 0.0) * -p
                            for row in chords])
    values[response] = envelope / h * (1.0 + slack)
    assume(values[response] <= r_max)
    values[cells.hr[0]] = h * values[response]
    for row in chords:
        assert activity(row, values) >= row.rhs - 1e-9 * max(
            1.0, abs(row.rhs))
    for row in rows:
        if row.label.startswith("hyp_cut"):
            act = activity(row, values)
            assert act >= row.rhs - 1e-9 * max(1.0, abs(row.rhs)), row.label
