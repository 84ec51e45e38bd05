from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frequc.freqsec import (
    QSS_MARGIN,
    inertia_expression,
    must_run,
    nadir_requirement,
    period_constants,
    period_rows,
    register_decisions,
    settled_limit,
)
from frequc.milp import MilpModel, solve
from frequc.milp.model import RowBlock
from frequc.sysmodel import (FrequencyParams, GeneratorSpec, largest_unit,
                             load_system)

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
    block = period_rows(cell, fleet, freq,
                        period_constants(fleet, freq, demand), r_max,
                        largest=largest_unit(fleet), loss_floor=loss_floor)
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
    f_nodamp = freq_for(fleet, [2000.0], damping=0.0, t_d=10.0, df_max=0.8)
    assert nadir_requirement(1800.0, f_nodamp, 99999.0) == pytest.approx(10_125_000.0)
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


def cell_admits_off(fleet, freq, demand, loss_floor, upper, off):
    """Whether one cell, built through ``register_decisions`` and
    ``period_rows``, has a point with unit ``off`` switched off.

    The largest unit is committed with an output of at least
    ``loss_floor``; a unit with ``upper`` 0 is off; every other commitment
    is a free binary bounding the unit's response.  Nothing else binds, so
    the rows are the only judge.
    """
    big = largest_unit(fleet)
    mdl = MilpModel()
    commit = [mdl.add_binary(f"x[{g.id}]") for g in fleet]
    output = [mdl.add_continuous(f"p[{g.id}]", 0.0, g.p_max) for g in fleet]
    pfr = [mdl.add_continuous(f"r[{g.id}]", 0.0, g.pfr_max) for g in fleet]
    for i, (g, hi) in enumerate(zip(fleet, upper)):
        if g.id == big.id:
            mdl.fix_variable(commit[i], 1.0)
        elif g.id == off or hi == 0.0:
            mdl.fix_variable(commit[i], 0.0)
        if g.pfr_max > 0.0:
            mdl.add_row({pfr[i]: 1.0, commit[i]: -g.pfr_max}, "<=",
                        0.0, f"pfr_cap[{g.id}]")
    mdl.add_row({output[fleet.index(big)]: 1.0}, ">=", loss_floor, "floor")
    r_max = sum(g.pfr_max for g in fleet)
    constants = period_constants(fleet, freq, demand)
    cell = register_decisions(mdl, fleet, freq, constants, r_max, period=0,
                              commit=commit, output=[output], pfr=[pfr])
    mdl.add_block(period_rows(cell, fleet, freq, constants, r_max,
                              largest=big, loss_floor=loss_floor))
    status = solve(mdl).status
    assert status in ("optimal", "infeasible")
    return status == "optimal"


def assert_pins_are_exact(fleet, freq, demand, loss_floor, upper):
    """A unit ``must_run`` pins leaves the cell no point when off; a free
    unit it leaves alone can be off.  Returns the pins of the free units."""
    big = largest_unit(fleet)
    pins = must_run(fleet, freq, period_constants(fleet, freq, demand),
                    loss_floor, upper)
    seen = []
    for g, hi, pin in zip(fleet, upper, pins):
        if g.id != big.id and hi == 1.0:
            assert cell_admits_off(fleet, freq, demand, loss_floor, upper,
                                   g.id) == (not pin), g.id
            seen.append(bool(pin))
    return seen


@pytest.mark.parametrize("mode", ["fixed", "optimised"])
def test_must_run_is_exact_on_the_bundled_fleet(mode):
    """At the full rating every unit is needed; at the deload floor none
    is."""
    system = load_system(DATA / "toy_system.yaml")
    fleet, freq = system.generators, system.frequency
    big = largest_unit(fleet)
    floor = big.p_max * (1.0 if mode == "fixed"
                         else 1.0 - big.max_deload_fraction)
    for demand in sorted(set(system.demand_profile)):
        seen = assert_pins_are_exact(fleet, freq, demand, floor,
                                     [1.0] * len(fleet))
        assert seen == [mode == "fixed"] * (len(fleet) - 1)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(demand=st.integers(100, 600).map(lambda k: 10.0 * k),
       loss_floor=st.integers(0, 90).map(lambda k: 10.0 * k),
       on=st.lists(st.booleans(), min_size=7, max_size=7),
       rocof_max=st.sampled_from([0.5, 1.0, 4.0]),
       damping=st.sampled_from([0.0, 0.02, 0.04]),
       settled_share=st.sampled_from([0.5, 1.0]))
def test_must_run_is_exact_on_drawn_cells(demand, loss_floor, on, rocof_max,
                                          damping, settled_share):
    """The bundled fleet with some of its seven smaller units held off, at
    a drawn demand and loss floor, and with drawn RoCoF, damping and
    settled limits, so that each requirement is at times the only one
    that pins."""
    system = load_system(DATA / "toy_system.yaml")
    fleet = system.generators
    assert largest_unit(fleet) is fleet[0] and len(fleet) == 8
    freq = replace(system.frequency, rocof_max=rocof_max, damping=damping,
                   df_ss_max=settled_share * system.frequency.df_max)
    assert_pins_are_exact(fleet, freq, demand, loss_floor,
                          [1.0] + [float(u) for u in on])
