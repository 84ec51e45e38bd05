import numpy as np
import pytest

from frequc.freqsec import (
    QSS_MARGIN,
    inertia_expression,
    inertia_floor_row,
    largest_loss_rows,
    linearize_inertia_pfr,
    max_inertia,
    nadir_discretization_rows,
    nadir_requirement,
    qss_row,
    register_decisions,
    rocof_row,
    settled_limit,
)
from frequc.milp import MilpModel, solve
from frequc.sysmodel import FrequencyParams, GeneratorSpec


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
    """One cell: the window's variables, then ``register_decisions``."""
    commit = {g.id: mdl.add_binary(f"x[{g.id}]") for g in fleet}
    output = {g.id: mdl.add_continuous(f"p[{g.id}]", 0.0, g.p_max)
              for g in fleet}
    pfr = {g.id: mdl.add_continuous(f"r[{g.id}]", 0.0, g.pfr_max)
           for g in fleet}
    [cell] = register_decisions(mdl, fleet, freq, r_max, commit=commit,
                                outputs=[output], pfrs=[pfr], tags=[""])
    return cell


def row_holds(row, values, tol=1e-9):
    act = sum(c * values[j] for j, c in row.coeffs.items())
    if row.sense == "<=":
        return act <= row.rhs + tol
    if row.sense == ">=":
        return act >= row.rhs - tol
    return abs(act - row.rhs) <= tol


def test_largest_loss_rows_per_generator():
    fleet = two_unit_fleet()
    mdl = MilpModel()
    dec = new_cell(mdl, fleet, freq_for(fleet, [2000.0]), r_max=200.0)
    rows = largest_loss_rows(dec, fleet)
    assert len(rows) == 2
    for row, g in zip(rows, fleet):
        assert row.sense == ">="
        assert row.rhs == 0.0
        assert row.coeffs == {dec.loss: 1.0, dec.output[g.id]: -1.0}


def test_largest_loss_rows_warn_when_empty():
    fleet = two_unit_fleet()
    mdl = MilpModel()
    dec = new_cell(mdl, fleet, freq_for(fleet, [2000.0]), r_max=200.0)
    with pytest.warns(UserWarning):
        assert largest_loss_rows(dec, fleet, eligible=()) == []


def test_loss_minimizes_to_largest_fixed_output():
    fleet = two_unit_fleet()
    freq = freq_for(fleet, [2000.0])
    mdl = MilpModel()
    dec = new_cell(mdl, fleet, freq, r_max=200.0)
    for row in largest_loss_rows(dec, fleet):
        mdl.add_row(row.coeffs, row.sense, row.rhs, row.label)
    mdl.add_row({dec.output["big"]: 1.0}, "=", 1320.0)
    mdl.set_objective({dec.loss: 1.0})
    got = solve(mdl)
    assert got.status == "optimal"
    assert got.objective == pytest.approx(1320.0, abs=1e-7)


def test_inertia_expression_worked_example():
    fleet = two_unit_fleet()
    freq = freq_for(fleet, [2000.0])
    mdl = MilpModel()
    dec = new_cell(mdl, fleet, freq, r_max=200.0)
    expr = inertia_expression(dec, fleet, freq)
    assert expr.coeffs[dec.commit["big"]] == pytest.approx(200.0)
    assert expr.coeffs[dec.commit["small"]] == pytest.approx(40.0)
    assert expr.constant == pytest.approx(-200.0)
    vals = np.zeros(mdl.n_vars)
    vals[dec.commit["big"]] = 1.0
    vals[dec.commit["small"]] = 1.0
    assert expr.value(vals) == pytest.approx(40.0)
    vals[dec.commit["small"]] = 0.0
    assert expr.value(vals) == pytest.approx(0.0)
    vals[dec.commit["big"]] = 0.0
    assert expr.value(vals) == pytest.approx(-200.0)


def test_inertia_floor_row_rejects_empty_commitment():
    fleet = two_unit_fleet()
    freq = freq_for(fleet, [2000.0])
    mdl = MilpModel()
    dec = new_cell(mdl, fleet, freq, r_max=200.0)
    row = inertia_floor_row(dec, fleet, freq)
    vals = np.zeros(mdl.n_vars)
    assert not row_holds(row, vals)
    vals[dec.commit["big"]] = 1.0
    assert row_holds(row, vals)   # largest alone leaves exactly H = 0


def test_rocof_row_worked_examples():
    fleet = two_unit_fleet()
    freq = freq_for(fleet, [2000.0], rocof_max=0.125)
    mdl = MilpModel()
    dec = new_cell(mdl, fleet, freq, r_max=200.0)
    row = rocof_row(dec, freq, inertia_expression(dec, fleet, freq))
    assert row.coeffs[dec.loss] == pytest.approx(-4.0)   # 1 / (2 * 0.125)
    # H = 240 with both units on; a 1800 MW loss needs H >= 7200, so fails
    vals = np.zeros(mdl.n_vars)
    vals[dec.commit["big"]] = vals[dec.commit["small"]] = 1.0
    vals[dec.loss] = 1800.0
    assert not row_holds(row, vals)
    vals[dec.loss] = 40.0 * 2.0 * 0.125   # exactly H * 2 * rocof_max
    assert row_holds(row, vals)
    vals[dec.loss] = 0.0
    assert row_holds(row, vals)


def test_qss_row_worked_examples():
    fleet = two_unit_fleet()
    freq = freq_for(fleet, [2000.0], damping=0.01, df_ss_max=0.5)
    mdl = MilpModel()
    dec = new_cell(mdl, fleet, freq, r_max=200.0)
    row = qss_row(dec, fleet, freq, demand=30000.0)
    assert row.coeffs == {dec.response: 1.0, dec.loss: -1.0}
    # H_max = 40 and D * demand = 300: eps = exp(-187.5), a vanishing
    # tightening of the settled limit
    assert row.rhs == pytest.approx(-150.0, rel=1e-12)
    vals = np.zeros(mdl.n_vars)
    vals[dec.loss] = 1800.0
    vals[dec.response] = 1650.0
    assert row_holds(row, vals)
    vals[dec.response] = 1649.0
    assert not row_holds(row, vals)
    # without damping the response must clear the whole loss by a margin
    # above the solver's rounding
    freq0 = freq_for(fleet, [2000.0], damping=0.0)
    row0 = qss_row(dec, fleet, freq0, demand=30000.0)
    assert row0.coeffs == {dec.response: 1.0, dec.loss: -1.0}
    assert row0.rhs == QSS_MARGIN > 1e-4
    vals[dec.response] = 1800.0
    assert not row_holds(row0, vals)
    vals[dec.response] = 1800.0 + QSS_MARGIN
    assert row_holds(row0, vals)


def test_settled_limit_worked_examples():
    fleet = two_unit_fleet()
    freq = freq_for(fleet, [2000.0], damping=0.01, df_ss_max=0.5, t_d=10.0)
    h_max = max_inertia(fleet, freq)
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
    dec = new_cell(mdl, fleet, freq, r_max=60000.0)
    for row in largest_loss_rows(dec, fleet):
        mdl.add_row(row.coeffs, row.sense, row.rhs, row.label)
    for row in linearize_inertia_pfr(dec, fleet, freq, r_max=60000.0):
        mdl.add_row(row.coeffs, row.sense, row.rhs, row.label)
    for row in nadir_discretization_rows(dec, freq, demand):
        mdl.add_row(row.coeffs, row.sense, row.rhs, row.label)
    mdl.add_row({dec.output["a"]: 1.0}, "=", p_fixed)
    mdl.set_objective({dec.pfr["b"]: 1.0})
    inertia = inertia_expression(dec, fleet, freq)

    def held(values):
        """H(x) * R at a solution: the product the rows must secure."""
        return inertia.value(values) * values[dec.response]

    return mdl, dec, fleet, freq, demand, held


def chord(p, p0, p1, freq, demand):
    r0 = nadir_requirement(p0, freq, demand)
    r1 = nadir_requirement(p1, freq, demand)
    return r0 + (r1 - r0) * (p - p0) / (p1 - p0)


def test_segment_selection_picks_cheapest_covering_segment():
    """Between grid points the envelope enforces the covering chord."""
    mdl, dec, fleet, freq, demand, held = segment_fixture(1000.0)
    got = solve(mdl)
    assert got.status == "optimal"
    assert got.values[dec.loss] == pytest.approx(1000.0, abs=1e-6)
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
    mdl, dec, fleet, freq, demand, held = segment_fixture(1800.0)
    got = solve(mdl)
    assert got.status == "optimal"
    want = nadir_requirement(1800.0, freq, demand)
    assert held(got.values) == pytest.approx(want, rel=1e-8)


def test_envelope_covers_loss_below_grid():
    """A loss below the first grid point still meets the requirement."""
    mdl, dec, fleet, freq, demand, held = segment_fixture(300.0)
    need = nadir_requirement(300.0, freq, demand)
    assert need > 0.0
    got = solve(mdl)
    assert got.status == "optimal"
    assert got.values[dec.loss] == pytest.approx(300.0, abs=1e-6)
    assert held(got.values) >= need * (1.0 - 1e-8)


def test_discretization_grid_validation():
    fleet = two_unit_fleet()
    mdl = MilpModel()
    freq = freq_for(fleet, [2000.0])
    dec = new_cell(mdl, fleet, freq, r_max=200.0)
    # grid enters the decreasing region of the requirement for huge damping
    hot = freq_for(fleet, [2000.0], damping=10.0)
    with pytest.raises(ValueError, match="conservative"):
        nadir_discretization_rows(dec, hot, 30000.0)


def test_linearize_rejects_bad_r_max():
    fleet = two_unit_fleet()
    mdl = MilpModel()
    freq = freq_for(fleet, [2000.0])
    dec = new_cell(mdl, fleet, freq, r_max=200.0)
    with pytest.raises(ValueError):
        linearize_inertia_pfr(dec, fleet, freq, r_max=0.0)


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
        dec = new_cell(mdl, fleet, freq, r_max=r_max)
        for row in linearize_inertia_pfr(dec, fleet, freq, r_max=r_max):
            mdl.add_row(row.coeffs, row.sense, row.rhs, row.label)
        commits = {}
        total_r = 0.0
        for g in fleet:
            xv = float(rng.integers(0, 2))
            commits[g.id] = xv
            mdl.add_row({dec.commit[g.id]: 1.0}, "=", xv)
            rv = float(rng.uniform(0.0, g.pfr_max))
            mdl.add_row({dec.pfr[g.id]: 1.0}, "=", rv)
            total_r += rv
        mdl.set_objective({dec.product: -1.0})
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
        assert got.values[dec.response] == pytest.approx(total_r, rel=1e-12)
        assert got.values[dec.product] == pytest.approx(want, rel=1e-9,
                                                        abs=1e-7)
    assert 0 < infeasible < 60
