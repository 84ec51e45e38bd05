from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frequc.freqdyn import certify_operating_point
from frequc.freqsec import (
    QSS_MARGIN,
    inertia_expression,
    must_run,
    nadir_requirement,
    period_constants,
    period_rows,
    period_template,
    register_decisions,
    security_count,
    settled_limit,
)
from frequc.milp import MilpModel, solve
from frequc.milp.model import RowBlock
from frequc.scheduler import _units_to_cover
from frequc.sysmodel import (FrequencyParams, GeneratorSpec,
                             build_scenario_tree, default_segment_grid,
                             largest_unit, load_scenario_table, load_system)
from reference.oracle import fewest_secure_units

DATA = Path(__file__).resolve().parent.parent / "data"


def two_unit_fleet():
    return (
        GeneratorSpec(id="big", technology="nuclear", p_max=2000.0,
                      inertia_const=5.0),
        GeneratorSpec(id="small", technology="thermal", p_max=500.0,
                      inertia_const=4.0, pfr_max=200.0),
    )


def freq_for(fleet, segments, **kw):
    big = max(fleet, key=lambda g: g.p_max)
    args = dict(f0=50.0, df_max=0.8, df_ss_max=0.5, rocof_max=0.125,
                t_d=10.0, damping=0.01)
    args.update(kw)
    return FrequencyParams(nadir_segments=tuple(segments),
                           largest_unit_rating=big.p_max,
                           largest_unit_inertia=big.inertia_const, **args)


def new_cell(mdl, fleet, freq, r_max):
    """One cell, period 0 and one branch: the window's variables, then
    ``register_decisions``, which reads no demand."""
    commit = [mdl.add_binary(f"x[{g.id}]") for g in fleet]
    output = [mdl.add_continuous(f"p[{g.id}]", 0.0, g.p_max) for g in fleet]
    pfr = [mdl.add_continuous(f"r[{g.id}]", 0.0, g.pfr_max) for g in fleet]
    return register_decisions(mdl, fleet, freq,
                              period_constants(fleet, freq, 0.0), r_max,
                              period=0, commit=commit, output=[output],
                              pfr=[pfr])


def add_cell_rows(mdl, cell, fleet, freq, kinds, *, demand=30000.0,
                  r_max=200.0, loss_floor=0.0):
    """Add to ``mdl`` the rows of ``period_rows`` for ``cell`` whose labels
    start with one of ``kinds``, and return them read back from
    ``mdl.rows``.  With the default ``loss_floor`` every unit is a loss
    source."""
    block = period_rows(cell, period_template(
        fleet, freq, period_constants(fleet, freq, demand), r_max,
        free=cell.free, fixed_on=cell.fixed_on, largest=largest_unit(fleet),
        loss_floor=loss_floor))
    keep = np.array([label.startswith(kinds) for label in block.labels])
    start = mdl.n_rows
    mdl.add_block(RowBlock(block.cols[keep], block.vals[keep],
                           block.sense[keep], block.rhs[keep],
                           [label for label, k in zip(block.labels, keep)
                            if k]))
    return mdl.rows[start:]


def ids(mdl, fleet):
    """The cell's columns by unit id, found by name: commitment, output and
    response."""
    return tuple({g.id: mdl.names.index(f"{head}[{g.id}]") for g in fleet}
                 for head in ("x", "p", "r"))


def inertia_value(cell, fleet, freq, values):
    """H(x) at ``values``, from ``inertia_expression``: its coefficients on
    the cell's columns in its slots, less its right-hand side."""
    [(_, _, _, slots, coefs, lost)] = inertia_expression(
        fleet, freq, period_constants(fleet, freq, 0.0))
    return float(np.dot(coefs, values[cell.columns[0, slots]]) - lost)


def row_holds(row, values, tol=1e-9):
    act = sum(c * values[j] for j, c in row.coeffs.items())
    if row.sense == "<=":
        return act <= row.rhs + tol
    if row.sense == ">=":
        return act >= row.rhs - tol
    return abs(act - row.rhs) <= tol


def test_largest_loss_rows_per_generator():
    fleet = two_unit_fleet()
    freq = freq_for(fleet, [2000.0])
    mdl = MilpModel()
    cell = new_cell(mdl, fleet, freq, r_max=200.0)
    _, output, _ = ids(mdl, fleet)
    rows = add_cell_rows(mdl, cell, fleet, freq, "loss_bound")
    assert len(rows) == 2
    for row, g in zip(rows, fleet):
        assert row.sense == ">="
        assert row.rhs == 0.0
        assert row.coeffs == {cell.loss[0]: 1.0, output[g.id]: -1.0}
        assert row.label == f"loss_bound[0][0][{g.id}]"
    # a unit rated at most the loss floor is no source
    rows = add_cell_rows(mdl, cell, fleet, freq, "loss_bound",
                         loss_floor=500.0)
    assert [row.label for row in rows] == ["loss_bound[0][0][big]"]


def test_loss_minimizes_to_largest_fixed_output():
    fleet = two_unit_fleet()
    freq = freq_for(fleet, [2000.0])
    mdl = MilpModel()
    cell = new_cell(mdl, fleet, freq, r_max=200.0)
    _, output, _ = ids(mdl, fleet)
    add_cell_rows(mdl, cell, fleet, freq, "loss_bound")
    mdl.add_row({output["big"]: 1.0}, "=", 1320.0)
    mdl.set_objective({int(cell.loss[0]): 1.0})
    got = solve(mdl)
    assert got.status == "optimal"
    assert got.objective == pytest.approx(1320.0, abs=1e-7)


def test_inertia_expression_worked_example():
    fleet = two_unit_fleet()
    freq = freq_for(fleet, [2000.0])
    mdl = MilpModel()
    cell = new_cell(mdl, fleet, freq, r_max=200.0)
    commit, _, _ = ids(mdl, fleet)
    [(_, _, _, slots, coefs, lost)] = inertia_expression(
        fleet, freq, period_constants(fleet, freq, 0.0))
    coeffs = dict(zip(cell.columns[0, slots].tolist(), coefs))
    assert coeffs[commit["big"]] == pytest.approx(200.0)
    assert coeffs[commit["small"]] == pytest.approx(40.0)
    assert -lost == pytest.approx(-200.0)
    # the inertia floor is the expression itself
    [floor] = add_cell_rows(mdl, cell, fleet, freq, "h_min")
    assert floor.coeffs == coeffs and floor.rhs == lost
    assert floor.label == "h_min[0]"
    vals = np.zeros(mdl.n_vars)
    vals[commit["big"]] = 1.0
    vals[commit["small"]] = 1.0
    assert inertia_value(cell, fleet, freq, vals) == pytest.approx(40.0)
    vals[commit["small"]] = 0.0
    assert inertia_value(cell, fleet, freq, vals) == pytest.approx(0.0)
    vals[commit["big"]] = 0.0
    assert inertia_value(cell, fleet, freq, vals) == pytest.approx(-200.0)


def test_inertia_floor_row_rejects_empty_commitment():
    fleet = two_unit_fleet()
    freq = freq_for(fleet, [2000.0])
    mdl = MilpModel()
    cell = new_cell(mdl, fleet, freq, r_max=200.0)
    commit, _, _ = ids(mdl, fleet)
    [row] = add_cell_rows(mdl, cell, fleet, freq, "h_min")
    vals = np.zeros(mdl.n_vars)
    assert not row_holds(row, vals)
    vals[commit["big"]] = 1.0
    assert row_holds(row, vals)   # largest alone leaves exactly H = 0


def test_rocof_row_worked_examples():
    fleet = two_unit_fleet()
    freq = freq_for(fleet, [2000.0], rocof_max=0.125)
    mdl = MilpModel()
    cell = new_cell(mdl, fleet, freq, r_max=200.0)
    commit, _, _ = ids(mdl, fleet)
    loss = int(cell.loss[0])
    [row] = add_cell_rows(mdl, cell, fleet, freq, "rocof")
    assert row.coeffs[loss] == pytest.approx(-4.0)   # 1 / (2 * 0.125)
    # H = 240 with both units on; a 1800 MW loss needs H >= 7200, so fails
    vals = np.zeros(mdl.n_vars)
    vals[commit["big"]] = vals[commit["small"]] = 1.0
    vals[loss] = 1800.0
    assert not row_holds(row, vals)
    vals[loss] = 40.0 * 2.0 * 0.125   # exactly H * 2 * rocof_max
    assert row_holds(row, vals)
    vals[loss] = 0.0
    assert row_holds(row, vals)


def test_qss_row_worked_examples():
    fleet = two_unit_fleet()
    freq = freq_for(fleet, [2000.0], damping=0.01, df_ss_max=0.5)
    mdl = MilpModel()
    cell = new_cell(mdl, fleet, freq, r_max=200.0)
    loss, response = int(cell.loss[0]), int(cell.R[0])
    [row] = add_cell_rows(mdl, cell, fleet, freq, "qss", demand=30000.0)
    assert row.coeffs == {response: 1.0, loss: -1.0}
    # H_max = 40 and D * demand = 300: eps = exp(-187.5), a vanishing
    # tightening of the settled limit
    assert row.rhs == pytest.approx(-150.0, rel=1e-12)
    vals = np.zeros(mdl.n_vars)
    vals[loss] = 1800.0
    vals[response] = 1650.0
    assert row_holds(row, vals)
    vals[response] = 1649.0
    assert not row_holds(row, vals)
    # without damping the response must clear the whole loss by a margin
    # above the solver's rounding
    freq0 = freq_for(fleet, [2000.0], damping=0.0)
    [row0] = add_cell_rows(mdl, cell, fleet, freq0, "qss", demand=30000.0)
    assert row0.coeffs == {response: 1.0, loss: -1.0}
    assert row0.rhs == QSS_MARGIN > 1e-4
    vals[response] = 1800.0
    assert not row_holds(row0, vals)
    vals[response] = 1800.0 + QSS_MARGIN
    assert row_holds(row0, vals)


def test_settled_limit_worked_examples():
    fleet = two_unit_fleet()
    freq = freq_for(fleet, [2000.0], damping=0.01, df_ss_max=0.5, t_d=10.0)
    h_max = period_constants(fleet, freq, 0.0).h_max
    assert h_max == pytest.approx(40.0)
    # equal limits: exactly df_ss_max, whatever the damping
    same = freq_for(fleet, [2000.0], damping=0.01, df_ss_max=0.8)
    assert settled_limit(same, 30.0, h_max) == 0.8
    # D * demand = 0.8, eps = exp(-0.8 * 50 / 80) = exp(-0.5)
    eps = np.exp(-0.5)
    want = 0.5 - eps * 0.3 / (1.0 - eps)
    assert settled_limit(freq, 80.0, h_max) == pytest.approx(want, rel=1e-12)
    assert want < 0.5
    # more inertia, slower recovery, tighter limit
    assert settled_limit(freq, 80.0, 2.0 * h_max) < want
    # zero damping: no recovery after the nadir, the limit stays put
    assert settled_limit(freq_for(fleet, [2000.0], damping=0.0,
                                  df_ss_max=0.5), 80.0, h_max) == 0.5


def test_nadir_requirement_worked_examples():
    fleet = two_unit_fleet()
    f_nodamp = freq_for(fleet, [2000.0], damping=0.0, t_d=10.0, df_max=0.8,
                        df_ss_max=0.8)
    assert nadir_requirement(1800.0, f_nodamp, 99999.0) == pytest.approx(10_125_000.0)
    # without damping the nadir is held within df_ss_max when it is tighter
    f_settled = replace(f_nodamp, df_ss_max=0.5)
    assert nadir_requirement(1800.0, f_settled, 99999.0) == pytest.approx(16_200_000.0)
    # with damping df_max alone sets the quadratic term (df_ss_max is 0.5)
    f_damp = freq_for(fleet, [2000.0], damping=0.01, t_d=10.0, df_max=0.8)
    assert nadir_requirement(1800.0, f_damp, 20000.0) == pytest.approx(9_225_000.0)
    assert nadir_requirement(0.0, f_damp, 20000.0) == 0.0


def test_nadir_requirement_monotone_above_turn():
    fleet = two_unit_fleet()
    freq = freq_for(fleet, [2000.0], damping=0.01)
    demand = 24000.0
    turn = freq.damping * demand * freq.df_max / 2.0
    grid = np.linspace(turn, 2000.0, 200)
    vals = [nadir_requirement(p, freq, demand) for p in grid]
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def segment_fixture(p_fixed):
    fleet = (
        GeneratorSpec(id="a", technology="nuclear", p_max=1800.0,
                      inertia_const=5.0),
        GeneratorSpec(id="b", technology="thermal", p_max=1500.0,
                      inertia_const=6.0, pfr_max=60000.0),
    )
    freq = freq_for(fleet, (600.0, 1200.0, 1800.0), damping=0.01,
                    t_d=10.0, df_max=0.8)
    demand = 20000.0
    mdl = MilpModel()
    cell = new_cell(mdl, fleet, freq, r_max=60000.0)
    _, output, pfr = ids(mdl, fleet)
    add_cell_rows(mdl, cell, fleet, freq,
                  ("loss_bound", "pfr_sum", "bigm_", "hr", "nadir_cut"),
                  demand=demand, r_max=60000.0)
    mdl.add_row({output["a"]: 1.0}, "=", p_fixed)
    mdl.set_objective({pfr["b"]: 1.0})

    def held(values):
        """H(x) * R at a solution: the product the rows must secure."""
        return inertia_value(cell, fleet, freq, values) * values[cell.R[0]]

    return mdl, cell, fleet, freq, demand, held


def chord(p, p0, p1, freq, demand):
    r0 = nadir_requirement(p0, freq, demand)
    r1 = nadir_requirement(p1, freq, demand)
    return r0 + (r1 - r0) * (p - p0) / (p1 - p0)


def test_segment_selection_picks_cheapest_covering_segment():
    """Between grid points the envelope enforces the covering chord."""
    mdl, cell, fleet, freq, demand, held = segment_fixture(1000.0)
    got = solve(mdl)
    assert got.status == "optimal"
    assert got.values[cell.loss[0]] == pytest.approx(1000.0, abs=1e-6)
    # the H=180 fleet must hold HR on the 600-1200 chord, above k(1000)
    want = chord(1000.0, 600.0, 1200.0, freq, demand)
    assert want > nadir_requirement(1000.0, freq, demand)
    assert held(got.values) == pytest.approx(want, rel=1e-8)
    assert got.objective == pytest.approx(want / 180.0, rel=1e-8)
    # every chord cut holds at the optimum
    for row in mdl.rows:
        if row.label.startswith("nadir_cut"):
            assert row_holds(row, got.values, tol=1e-6)


def test_segment_selection_on_grid_point():
    """At a grid point the envelope equals the requirement."""
    mdl, cell, fleet, freq, demand, held = segment_fixture(1800.0)
    got = solve(mdl)
    assert got.status == "optimal"
    want = nadir_requirement(1800.0, freq, demand)
    assert held(got.values) == pytest.approx(want, rel=1e-8)


def test_envelope_covers_loss_below_grid():
    """A loss below the first grid point still meets the requirement."""
    mdl, cell, fleet, freq, demand, held = segment_fixture(300.0)
    need = nadir_requirement(300.0, freq, demand)
    assert need > 0.0
    got = solve(mdl)
    assert got.status == "optimal"
    assert got.values[cell.loss[0]] == pytest.approx(300.0, abs=1e-6)
    assert held(got.values) >= need * (1.0 - 1e-8)


def test_discretization_grid_validation():
    fleet = two_unit_fleet()
    mdl = MilpModel()
    freq = freq_for(fleet, [2000.0])
    cell = new_cell(mdl, fleet, freq, r_max=200.0)
    # grid enters the decreasing region of the requirement for huge damping
    hot = freq_for(fleet, [2000.0], damping=10.0)
    with pytest.raises(ValueError, match="conservative"):
        add_cell_rows(mdl, cell, fleet, hot, "nadir_cut", demand=30000.0)


def test_linearize_rejects_bad_r_max():
    fleet = two_unit_fleet()
    mdl = MilpModel()
    freq = freq_for(fleet, [2000.0])
    cell = new_cell(mdl, fleet, freq, r_max=200.0)
    with pytest.raises(ValueError, match="r_max"):
        add_cell_rows(mdl, cell, fleet, freq, "pfr_sum", r_max=0.0)


def test_big_m_product_is_exact_on_random_assignments():
    """Maximising hr with x and r pinned reaches exactly H(x) * R; with
    H(x) < 0 no hr >= 0 fits under the product and the cell is infeasible."""
    fleet = (
        GeneratorSpec(id="g1", technology="thermal", p_max=400.0,
                      inertia_const=5.0, pfr_max=150.0),
        GeneratorSpec(id="g2", technology="thermal", p_max=900.0,
                      inertia_const=4.0, pfr_max=300.0),
        GeneratorSpec(id="g3", technology="nuclear", p_max=1200.0,
                      inertia_const=6.0, pfr_max=0.0),
        GeneratorSpec(id="w", technology="wind", p_max=800.0),
    )
    freq = freq_for(fleet, [1200.0], damping=0.0)
    r_max = sum(g.pfr_max for g in fleet)
    rng = np.random.default_rng(12)
    infeasible = 0
    for _ in range(60):
        mdl = MilpModel()
        cell = new_cell(mdl, fleet, freq, r_max=r_max)
        commit, _, pfr = ids(mdl, fleet)
        add_cell_rows(mdl, cell, fleet, freq, ("pfr_sum", "bigm_", "hr"),
                      demand=30000.0, r_max=r_max)
        commits = {}
        total_r = 0.0
        for g in fleet:
            xv = float(rng.integers(0, 2))
            commits[g.id] = xv
            mdl.add_row({commit[g.id]: 1.0}, "=", xv)
            rv = float(rng.uniform(0.0, g.pfr_max))
            mdl.add_row({pfr[g.id]: 1.0}, "=", rv)
            total_r += rv
        mdl.set_objective({int(cell.hr[0]): -1.0})
        got = solve(mdl)
        h_direct = (sum(g.inertia_const * g.p_max / freq.f0 * commits[g.id]
                        for g in fleet if g.synchronous)
                    - freq.largest_unit_rating * freq.largest_unit_inertia / freq.f0)
        want = h_direct * total_r
        if want < -1e-7:
            assert got.status == "infeasible"
            infeasible += 1
            continue
        assert got.status == "optimal"
        assert got.values[cell.R[0]] == pytest.approx(total_r, rel=1e-12)
        assert got.values[cell.hr[0]] == pytest.approx(want, rel=1e-9,
                                                       abs=1e-7)
    assert 0 < infeasible < 60


# -- security must-run pins ---------------------------------------------------


def cell_fewest_on(fleet, freq, demand, net, loss_floor, upper, off=None):
    """The fewest units besides the largest that one cell, built through
    ``register_decisions`` and ``period_rows``, has on at any of its
    points with unit ``off`` switched off; None when it has no point.

    The cell serves demand ``demand`` with wind at most ``demand - net``,
    so its outputs carry the net demand ``net``.  The largest unit is
    committed with an output of at least ``loss_floor``; a unit with
    ``upper`` 0 is off; every other commitment is a free binary bounding
    the unit's output and response (``headroom``, ``pfr_cap``).  Nothing
    else binds, so the window's rows are the only judge.
    """
    big = largest_unit(fleet)
    mdl = MilpModel()
    commit = [mdl.add_binary(f"x[{g.id}]") for g in fleet]
    output = [mdl.add_continuous(f"p[{g.id}]", 0.0, g.p_max) for g in fleet]
    pfr = [mdl.add_continuous(f"r[{g.id}]", 0.0, g.pfr_max) for g in fleet]
    wind = mdl.add_continuous("wind", 0.0, demand - net)
    mdl.add_row({**{j: 1.0 for j in output}, wind: 1.0}, "=", demand,
                "balance")
    for i, (g, hi) in enumerate(zip(fleet, upper)):
        if g.id == big.id:
            mdl.lb[commit[i]] = 1.0
        elif g.id == off or hi == 0.0:
            mdl.ub[commit[i]] = 0.0
        mdl.add_row({output[i]: 1.0, pfr[i]: 1.0, commit[i]: -g.p_max},
                    "<=", 0.0, f"headroom[{g.id}]")
        if g.pfr_max > 0.0:
            mdl.add_row({pfr[i]: 1.0, commit[i]: -g.pfr_max}, "<=",
                        0.0, f"pfr_cap[{g.id}]")
    mdl.add_row({output[fleet.index(big)]: 1.0}, ">=", loss_floor, "floor")
    r_max = sum(g.pfr_max for g in fleet)
    constants = period_constants(fleet, freq, demand)
    cell = register_decisions(mdl, fleet, freq, constants, r_max, period=0,
                              commit=commit, output=[output], pfr=[pfr])
    mdl.add_block(period_rows(cell, period_template(
        fleet, freq, constants, r_max, free=cell.free,
        fixed_on=cell.fixed_on, largest=big, loss_floor=loss_floor)))
    mdl.set_objective({j: 1.0 for g, j in zip(fleet, commit)
                       if g.id != big.id})
    result = solve(mdl)
    assert result.status in ("optimal", "infeasible")
    return round(result.objective) if result.status == "optimal" else None


def assert_screen_is_exact(fleet, freq, demand, net, loss_floor, upper):
    """A unit ``must_run`` pins leaves the cell no point when off, at any
    net demand; a free unit it leaves alone can be off when the net demand
    is 0.  The count ``security_count`` returns at net demand ``net`` is
    the enumerated count of its largest ratings, inertias and responses
    taken apart, and at most the fewest other units on at any point of the
    cell, which enumeration finds too (all that may run when the cell has
    no point).  Returns the pins of the free units, the count and the
    fewest."""
    big = largest_unit(fleet)
    constants = period_constants(fleet, freq, demand)
    pins = must_run(fleet, freq, constants, loss_floor, upper, largest=big)
    count = security_count(fleet, freq, constants, loss_floor, upper,
                           largest=big, net=net)
    exact, relaxed = fewest_secure_units(fleet, freq, demand, loss_floor,
                                         upper, big, net=net)
    assert count == relaxed <= exact
    seen = []
    for g, hi, pin in zip(fleet, upper, pins):
        if g.id != big.id and hi == 1.0:
            admits_off = cell_fewest_on(fleet, freq, demand, 0.0, loss_floor,
                                        upper, g.id) is not None
            assert admits_off == (not pin), g.id
            seen.append(bool(pin))
    fewest = cell_fewest_on(fleet, freq, demand, net, loss_floor, upper)
    may_run = sum(hi > 0.0 for g, hi in zip(fleet, upper) if g.id != big.id)
    assert exact == (may_run if fewest is None else fewest)
    return seen, count, exact


def bundled_at_700_mw():
    """The bundled system and scenario tree, at their 700 MW of wind."""
    system = load_system(DATA / "toy_system.yaml")
    tree = build_scenario_tree(
        *load_scenario_table(DATA / "toy_scenarios.txt"))
    assert system.wind_capacity == 700.0
    return system, tree


@pytest.mark.parametrize("mode", ["fixed", "optimised"])
def test_must_run_is_exact_on_the_bundled_fleet(mode):
    """At the full rating every unit is needed; at the deload floor none
    is, and any secure cell has five others on, six where the period's
    highest net demand, 2905.5 MW and up, also asks for them (periods
    6-18 at 700 MW of wind): the count is exact."""
    system, tree = bundled_at_700_mw()
    fleet, freq = system.generators, system.frequency
    big = largest_unit(fleet)
    floor = big.p_max * (1.0 if mode == "fixed"
                         else 1.0 - big.max_deload_fraction)
    counts = []
    for demand, net in zip(system.demand_profile, tree.net.max(axis=1)):
        seen, count, exact = assert_screen_is_exact(
            fleet, freq, demand, float(net), floor, [1.0] * len(fleet))
        assert seen == [mode == "fixed"] * (len(fleet) - 1)
        assert count == exact
        counts.append(count)
    assert counts == ([7] * 24 if mode == "fixed"
                      else [5] * 6 + [6] * 13 + [5] * 5)


def test_energy_raises_the_count_on_the_bundled_fleet():
    """At 700 MW of wind, deloaded, in period 6: five other units meet the
    security rows at the floor, and four carry the highest net demand less
    the largest rating, so the cover row asked for five; but no five carry
    that net demand less the loss plus the response the nadir asks for at
    that loss, and six do.  A cell of the window's rows has six others on
    at its fewest."""
    system, tree = bundled_at_700_mw()
    fleet, freq = system.generators, system.frequency
    big = largest_unit(fleet)
    floor = big.p_max * (1.0 - big.max_deload_fraction)
    demand, net = system.demand_profile[6], float(tree.net[6].max())
    constants = period_constants(fleet, freq, demand)
    upper = [1.0] * len(fleet)
    others = [g.p_max for g in fleet if g.id != big.id]
    assert _units_to_cover(others, net - big.p_max) == 4
    assert security_count(fleet, freq, constants, floor, upper, largest=big,
                          net=0.0) == 5
    assert security_count(fleet, freq, constants, floor, upper, largest=big,
                          net=net) == 6
    assert fewest_secure_units(fleet, freq, demand, floor, upper, big,
                               net=net) == (6, 6)
    assert cell_fewest_on(fleet, freq, demand, net, floor, upper) == 6


def test_security_count_is_exact_in_the_loss():
    """The loss that lets one other unit carry the net demand can lie
    strictly between the floor and the rating.  The largest unit, 670 MW
    with no response, deloads to 536 MW; each other unit has 400 MW and
    100 MW*s^2 of inertia.  With D * demand = 630 MW/Hz the nadir asks
    nothing up to its root near 630 MW, nor does the QSS row, and beyond
    it the response it asks grows faster than the loss (chord slopes
    above 100).  So one unit carries 400 MW plus a loss near 630 MW, but
    only 936 MW at the floor and 1003 MW at the rating (holding 67 MW of
    response): at 1025 MW one unit will do, and a cell of the rows agrees;
    at the rating alone, or at 1035 MW, it takes two."""
    unit = GeneratorSpec(id="a", technology="thermal", p_max=400.0,
                         inertia_const=12.5, pfr_max=300.0)
    fleet = (GeneratorSpec(id="big", technology="thermal", p_max=670.0,
                           inertia_const=3.0, deloadable=True,
                           max_deload_fraction=0.2),
             unit, replace(unit, id="b"))
    freq = freq_for(fleet, default_segment_grid(670.0, 0.2), df_max=1.0,
                    df_ss_max=1.0, rocof_max=4.0, t_d=1.0, damping=0.525)
    demand, upper, big = 1200.0, [1.0] * 3, fleet[0]
    constants = period_constants(fleet, freq, demand)

    def count(floor, net):
        return security_count(fleet, freq, constants, floor, upper,
                              largest=big, net=net)

    assert count(536.0, 1025.0) == 1
    assert fewest_secure_units(fleet, freq, demand, 536.0, upper, big,
                               net=1025.0) == (1, 1)
    assert cell_fewest_on(fleet, freq, demand, 1025.0, 536.0, upper) == 1
    assert count(670.0, 1025.0) == count(536.0, 1035.0) == 2


def test_must_run_caps_the_largest_units_response():
    """The largest unit, 100 MW, holds up to 50 MW of response; two others,
    90 MW, hold 30 MW each, and the QSS row asks R >= P - 50.  With its
    output at least the floor, ``headroom`` leaves the largest at most its
    rating less the floor of response.  At the rating (fixed mode) that is
    none, so neither other unit alone clears the row and every secure
    commitment has both on: the screen pins both, where counting the
    largest's full 50 MW left each free.  Deloaded to 50 MW it holds its
    50 MW, one other unit will do, and nothing is pinned."""
    unit = GeneratorSpec(id="a", technology="thermal", p_max=90.0,
                         inertia_const=100.0, pfr_max=30.0)
    big = GeneratorSpec(id="big", technology="thermal", p_max=100.0,
                        inertia_const=5.0, pfr_max=50.0, deloadable=True,
                        max_deload_fraction=0.5)
    fleet = (big, unit, replace(unit, id="b"))
    freq = freq_for(fleet, default_segment_grid(100.0, 0.5), df_max=1.0,
                    df_ss_max=1.0, rocof_max=1.0, damping=0.05)
    demand, upper = 1000.0, [1.0] * 3
    assert period_constants(fleet, freq, demand).qss == -50.0
    for floor, pinned, fewest in ((100.0, True, 2), (50.0, False, 1)):
        assert fewest_secure_units(fleet, freq, demand, floor, upper, big,
                                   net=None) == (fewest, fewest)
        seen, count, exact = assert_screen_is_exact(fleet, freq, demand, 0.0,
                                                    floor, upper)
        assert seen == [pinned] * 2 and count == exact == fewest


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(demand=st.integers(100, 600).map(lambda k: 10.0 * k),
       loss_floor=st.integers(0, 90).map(lambda k: 10.0 * k),
       on=st.lists(st.booleans(), min_size=7, max_size=7),
       rocof_max=st.sampled_from([0.5, 1.0, 4.0]),
       damping=st.sampled_from([0.0, 0.02, 0.04]),
       settled_share=st.sampled_from([0.5, 1.0]),
       net_share=st.integers(0, 10).map(lambda k: k / 10.0))
def test_must_run_is_exact_on_drawn_cells(demand, loss_floor, on, rocof_max,
                                          damping, settled_share, net_share):
    """The bundled fleet with some of its seven smaller units held off, at
    a drawn demand, net demand and loss floor, and with drawn RoCoF,
    damping and settled limits, so that each requirement is at times the
    only one that pins."""
    system = load_system(DATA / "toy_system.yaml")
    fleet = system.generators
    assert largest_unit(fleet) is fleet[0] and len(fleet) == 8
    freq = replace(system.frequency, rocof_max=rocof_max, damping=damping,
                   df_ss_max=settled_share * system.frequency.df_max)
    net = net_share * min(demand, sum(g.p_max for g in fleet))
    assert_screen_is_exact(fleet, freq, demand, net, loss_floor,
                           [1.0] + [float(u) for u in on])


def pinned_cell_status(fleet, freq, demand, loss, response=None):
    """Solver status of one cell with every unit committed and the largest,
    ``fleet[0]``, at output ``loss``; with ``response``, the summed
    response held at it."""
    mdl = MilpModel()
    commit = [mdl.add_binary(f"x[{g.id}]") for g in fleet]
    output = [mdl.add_continuous(f"p[{g.id}]", 0.0, g.p_max) for g in fleet]
    pfr = [mdl.add_continuous(f"r[{g.id}]", 0.0, g.pfr_max) for g in fleet]
    for j in commit:
        mdl.lb[j] = 1.0
    mdl.lb[output[0]] = mdl.ub[output[0]] = loss
    if response is not None:
        mdl.add_row({j: 1.0 for j in pfr}, "=", response, "response")
    r_max = sum(g.pfr_max for g in fleet)
    constants = period_constants(fleet, freq, demand)
    cell = register_decisions(mdl, fleet, freq, constants, r_max, period=0,
                              commit=commit, output=[output], pfr=[pfr])
    mdl.add_block(period_rows(cell, period_template(
        fleet, freq, constants, r_max, free=cell.free,
        fixed_on=cell.fixed_on, largest=fleet[0], loss_floor=loss)))
    return solve(mdl).status


def test_long_delivery_holds_the_nadir_within_the_settled_limit():
    """With delivery lasting 60 s or more, every reading up to 60 s lies on
    the delivery-phase piece, whose minimum the nadir rule bounds, so the
    rows hold the nadir within min(df_max, df_ss_max).  This cell meets the
    RoCoF row and the nadir rule at df_max, H * R = 1000 * 75, but
    reads -0.83 Hz at 60 s against df_ss_max = 0.5: the rows reject it."""
    # the largest unit's inertia goes with it, so H(x) is the responder's
    fleet = (
        GeneratorSpec(id="big", technology="nuclear", p_max=100.0,
                      inertia_const=600.0),
        GeneratorSpec(id="resp", technology="thermal", p_max=100.0,
                      inertia_const=500.0, pfr_max=75.0),
    )
    freq = freq_for(fleet, [100.0], df_max=1.0, df_ss_max=0.5,
                    rocof_max=1.0, t_d=60.0, damping=0.05)
    demand = 1000.0  # D * demand = 50 MW/Hz
    trace, report = certify_operating_point(1000.0, 50.0, 75.0, freq.t_d,
                                            100.0, freq)
    assert report.rocof_ok and report.nadir_ok and not report.qss_ok
    assert trace.deviation_60 == pytest.approx(-0.8306, abs=1e-4)
    # no QSS row: the nadir rows hold the 60-s reading
    assert period_constants(fleet, freq, demand).qss is None
    assert nadir_requirement(100.0, freq, demand) == 3000.0 * 75.0
    assert pinned_cell_status(fleet, freq, demand, 100.0) == "infeasible"
    # with the limits equal the rule reads df_max, and the cell is secure
    at_df_max = replace(freq, df_ss_max=1.0)
    assert nadir_requirement(100.0, at_df_max, demand) == 1000.0 * 75.0
    assert certify_operating_point(1000.0, 50.0, 75.0, freq.t_d, 100.0,
                                   at_df_max)[1].ok
    assert pinned_cell_status(fleet, at_df_max, demand, 100.0) == "optimal"


def test_long_delivery_with_damping_has_no_qss_row():
    """With damping and delivery lasting 60 s or more the nadir rows hold
    the 60-s reading within df_ss_max, so a QSS row would only cut
    schedules the swing check passes.  This cell, H = 20000, R = 40
    against a 100 MW loss with D * demand = 50 MW/Hz, meets the RoCoF row
    and the nadir rule (800,000 >= 225,000) and reads -0.115 Hz at 60 s
    against df_ss_max = 0.5; a QSS row would ask R >= 75.  Without damping
    the row stays, and the cell diverges."""
    # the largest unit's inertia goes with it, so H(x) is the responders'
    big = GeneratorSpec(id="big", technology="nuclear", p_max=100.0,
                        inertia_const=600.0)
    resp = GeneratorSpec(id="resp", technology="thermal", p_max=100.0,
                         inertia_const=10000.0, pfr_max=40.0)
    fleet = (big, resp)
    freq = freq_for(fleet, [100.0], df_max=1.0, df_ss_max=0.5,
                    rocof_max=1.0, t_d=60.0, damping=0.05)
    demand = 1000.0  # D * demand = 50 MW/Hz
    trace, report = certify_operating_point(20000.0, 50.0, 40.0, freq.t_d,
                                            100.0, freq)
    assert report.ok
    assert trace.deviation_60 == pytest.approx(-0.115, abs=1e-3)
    assert period_constants(fleet, freq, demand).qss is None
    assert nadir_requirement(100.0, freq, demand) == 225000.0
    assert pinned_cell_status(fleet, freq, demand, 100.0, 40.0) == "optimal"
    # the screen drops the QSS test too: with a second such responder,
    # either one alone is this cell, so neither is pinned and one will do
    spare = replace(resp, id="spare")
    pair = (big, resp, spare)
    constants = period_constants(pair, freq, demand)
    pins = must_run(pair, freq, constants, 100.0, [1.0] * 3, largest=big)
    count = security_count(pair, freq, constants, 100.0, [1.0] * 3,
                           largest=big, net=0.0)
    assert pins.tolist() == [False] * 3 and count == 1
    # without damping the row holds R at least QSS_MARGIN above the loss
    still = replace(freq, damping=0.0)
    assert period_constants(fleet, still, demand).qss == QSS_MARGIN
    trace, report = certify_operating_point(20000.0, 0.0, 40.0, still.t_d,
                                            100.0, still)
    assert trace.diverges and not report.qss_ok
    assert pinned_cell_status(fleet, still, demand, 100.0, 40.0) \
        == "infeasible"
