"""Properties of solved windows on random small fleets and scenario trees.

Each example is a fleet of 2-4 synchronous units (the largest may deload),
1-3 net-demand branches and 1-3 periods.  Expected costs are compared
within the solver's relative MIP gap: a reported optimum lies at most
``GAP`` of its own magnitude above the true one.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from frequc.scheduler import UcOptions, solve_uc, verify_solution
from frequc.sysmodel import (
    FrequencyParams,
    GeneratorSpec,
    SystemSpec,
    build_scenario_tree,
    default_segment_grid,
)

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


def solve_window(system, tree, mode, secured):
    options = UcOptions(frequency_constraints=secured, horizon=tree.n_periods,
                        first_stage=tree.n_periods, largest_loss_mode=mode)
    solution, _, raw = solve_uc(system, tree, options)
    assert raw.status in ("optimal", "infeasible"), raw.status
    return solution


# Drawn only with df_ss_max = df_max and positive damping, as in the bundled
# system; outside that the check can fail (counterexamples in CHANGES.md).
# With df_ss_max < df_max the QSS row bounds the settled deviation but the
# check reads it at 60 s, when a slow recovery from a nadir between the two
# limits is still below df_ss_max.  Without damping the check fails any
# R < loss as divergent, also an R one rounding step under the loss.
@PROPERTY
@given(windows(settled_shares=(1.0,), damping_shares=(0.3, 0.9)))
def test_secured_optimal_windows_pass_the_swing_check(window):
    system, tree = window
    for mode in ("fixed", "optimised"):
        solution = solve_window(system, tree, mode, secured=True)
        if solution is not None:
            report = verify_solution(solution, system, tol=1e-6)
            assert report.ok, [(c.period, c.scenario) for c in report.failures()]


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
