"""Acceptance gate for the frequency-secured scheduling toolkit.

Eight end-to-end checks, one test each, every one printing a single
``[acceptance] ...: PASS`` line (run pytest with ``-s`` to see them; a
failure shows up as the corresponding FAILED test).  The expensive part,
the wind-capacity study over the bundled desk-scale system, runs once in
a module fixture and is shared by the security, trend, discretization
and relaxation checks.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from frequc.cli import _scale_wind
from frequc.freqdyn import SwingInputs, exact_nadir_feasible, simulate_swing
from frequc.freqsec import (nadir_requirement, period_constants,
                            period_rows, register_decisions)
from frequc.milp import MilpModel, solve
from frequc.milp.model import SENSE_EQ, SENSE_GE, SENSE_LE
from frequc.scheduler import (UcOptions, _advance_state, default_initial_state,
                              emissions, load_factor, slice_tree,
                              solve_rolling_horizon, solve_uc, verify_solution,
                              verify_trajectory)
from frequc.sysmodel import (FrequencyParams, GeneratorSpec,
                             build_scenario_tree, default_segment_grid,
                             largest_unit, load_scenario_table, load_system)
from reference.oracle import solve_exhaustive

DATA = Path(__file__).resolve().parent.parent / "data"
WIND_LEVELS = (700.0, 1850.0, 3000.0)
MODES = ("fixed", "optimised")
STUDY_OPTIONS = UcOptions(horizon=12, first_stage=12)
REL = 1e-6


@pytest.fixture(scope="module")
def study():
    """Secured and unsecured rolling runs for every wind level and mode."""
    base = load_system(DATA / "toy_system.yaml")
    levels, table = load_scenario_table(DATA / "toy_scenarios.txt")
    base_tree = build_scenario_tree(levels, table)
    assert 5 <= len(base.generators) <= 10
    assert base.n_periods == 24
    assert len(base_tree.branches) == 7

    cells = {}
    secured_seconds = 0.0
    for cap in WIND_LEVELS:
        system, tree = _scale_wind(base, base_tree, cap)
        for mode in MODES:
            options = replace(STUDY_OPTIONS, largest_loss_mode=mode)
            t0 = time.perf_counter()
            on = solve_rolling_horizon(
                system, tree, replace(options, frequency_constraints=True))
            secured_seconds += time.perf_counter() - t0
            off = solve_rolling_horizon(
                system, tree, replace(options, frequency_constraints=False))
            assert on.ok, f"{cap:g} MW {mode} secured: {on.message}"
            assert off.ok, f"{cap:g} MW {mode} unsecured: {off.message}"
            cells[cap, mode] = (system, tree, on, off)
    return {"base": base, "cells": cells, "secured_seconds": secured_seconds}


def test_security_soundness(study):
    """Every period and branch of every secured solve passes the swing check."""
    checks = 0
    for (cap, mode), (system, tree, on, off) in study["cells"].items():
        for window in on.windows:
            report = verify_solution(window, system, tol=1e-6)
            bad = report.failures()
            assert not bad, f"{cap:g} MW {mode}: {len(bad)} insecure cells"
            checks += len(report.checks)
        traj = verify_trajectory(on.trajectory, system, tol=1e-6)
        assert not traj.failures(), f"{cap:g} MW {mode}: realized path insecure"
        checks += len(traj.checks)
    assert checks >= 1000
    assert study["secured_seconds"] < 300.0
    print(f"\n[acceptance] security soundness: PASS ({checks} swing checks, "
          f"secured solves took {study['secured_seconds']:.1f}s)")


# Limits used by the operating-point sweeps.  Damping is set to one so the
# demand argument of the requirement function is the damping product itself.
SWEEP_FREQ = FrequencyParams(
    f0=50.0, df_max=0.8, df_ss_max=0.5, rocof_max=1.0, t_d=10.0, damping=1.0,
    nadir_segments=(1800.0,), largest_unit_rating=1800.0,
    largest_unit_inertia=4.0,
)


def test_inner_approximation_chain():
    """Linear-rule points pass the exact rule; exact-rule points are safe.

    The linear rule under-approximates the exact nadir region only where
    the steady-state requirement already holds, so the sweep stays inside
    that region.
    """
    rng = np.random.default_rng(20240815)
    freq = SWEEP_FREQ
    samples = linear_ok = exact_ok_count = 0
    while samples < 1000:
        h = rng.uniform(200.0, 10000.0)
        r = rng.uniform(100.0, 3000.0)
        p = rng.uniform(100.0, 1800.0)
        d = 0.0 if rng.random() < 0.15 else rng.uniform(0.0, 300.0)
        if r < p - d * freq.df_ss_max:
            continue
        samples += 1
        lin = h * r >= nadir_requirement(p, freq, d)
        exact = exact_nadir_feasible(h, r, p, d, freq.t_d, freq.df_max)
        if lin:
            linear_ok += 1
            assert exact, f"linear rule passed but exact failed: {(h, r, p, d)}"
        if exact:
            exact_ok_count += 1
            trace = simulate_swing(SwingInputs(
                inertia=h, damping=d, pfr=r,
                delivery_time=freq.t_d, loss=p))
            assert trace.nadir >= -freq.df_max - 1e-6, \
                f"exact rule passed but nadir {trace.nadir:.9f}: {(h, r, p, d)}"
    assert linear_ok >= 100 and exact_ok_count >= linear_ok
    print(f"\n[acceptance] inner approximation chain: PASS ({samples} samples, "
          f"{linear_ok} linear-feasible, {exact_ok_count} exact-feasible, "
          "0 counterexamples)")


def test_zero_damping_boundary_tightness():
    """At the undamped security boundary the simulated nadir is exact."""
    trace = simulate_swing(SwingInputs(
        inertia=5062.5, damping=0.0, pfr=2000.0, delivery_time=10.0,
        loss=1800.0))
    assert abs(trace.nadir - (-0.8)) <= 1e-9
    assert abs(trace.nadir_time - 9.0) <= 1e-9

    rng = np.random.default_rng(7)
    for _ in range(200):
        r = rng.uniform(500.0, 3000.0)
        p = r * rng.uniform(0.3, 1.0)
        td = rng.uniform(5.0, 30.0)
        df = rng.uniform(0.3, 1.5)
        h = p * p * td / (4.0 * df * r)
        trace = simulate_swing(SwingInputs(
            inertia=h, damping=0.0, pfr=r, delivery_time=td, loss=p))
        assert abs(trace.nadir + df) <= 1e-9
        t_star = p * td / r
        assert abs(trace.nadir_time - t_star) <= 1e-9 * max(1.0, t_star)
    print("\n[acceptance] zero-damping boundary tightness: PASS "
          "(frozen point and 200 equality points within 1e-9 Hz)")


def _ge_coef(row, j):
    """Coefficient of variable j once the row is written as ``>=``."""
    return -row.coeffs[j] if row.sense == SENSE_LE else row.coeffs[j]


def _row_bound(row, j, values):
    """Bound the row puts on variable j with every other variable at
    ``values``, as ``(is_upper, bound)``."""
    rest = sum(c * values[i] for i, c in row.coeffs.items() if i != j)
    return _ge_coef(row, j) < 0.0, (row.rhs - rest) / row.coeffs[j]


def _economic_cell(fleet, demand, floor, freq=None, commit=None):
    """One period and branch: balance, unit limits, the largest unit's
    floor and a cost; with ``freq`` the compact frequency cell is added.
    ``commit`` pins every commitment, else only the largest unit's."""
    big = largest_unit(fleet)
    r_max = sum(g.pfr_max for g in fleet)
    model = MilpModel()
    x = {g.id: model.add_binary(f"x[{g.id}]") for g in fleet}
    p = {g.id: model.add_continuous(f"p[{g.id}]", 0.0, g.p_max) for g in fleet}
    r = {g.id: model.add_continuous(f"r[{g.id}]", 0.0, g.pfr_max)
         for g in fleet}
    for gid, value in (commit or {big.id: 1.0}).items():
        model.fix_variable(x[gid], value)
    model.add_row({p[g.id]: 1.0 for g in fleet}, SENSE_EQ, demand)
    for g in fleet:
        model.add_row({p[g.id]: 1.0, x[g.id]: -g.p_min}, SENSE_GE, 0.0)
        model.add_row({p[g.id]: 1.0, r[g.id]: 1.0, x[g.id]: -g.p_max},
                      SENSE_LE, 0.0)
        model.add_row({r[g.id]: 1.0, x[g.id]: -g.pfr_max}, SENSE_LE, 0.0)
    model.add_row({p[big.id]: 1.0}, SENSE_GE, floor)
    model.set_objective({
        **{p[g.id]: g.marginal_cost for g in fleet},
        **{x[g.id]: g.no_load_cost for g in fleet if g.no_load_cost},
        **{r[g.id]: 0.5 * g.marginal_cost for g in fleet if g.pfr_max}})
    if freq is not None:
        constants = period_constants(fleet, freq, demand)
        cell = register_decisions(model, fleet, freq, constants, r_max,
                                  period=0, commit=list(x.values()),
                                  output=[list(p.values())],
                                  pfr=[list(r.values())])
        model.add_block(period_rows(cell, fleet, freq, constants, r_max,
                                    largest=big, loss_floor=floor))
    return model, x, p, r


def _enumerated_optimum(fleet, demand, floor, freq):
    """Best cost over every commitment, each an LP with the exact product:
    with x fixed, H(x) is a number and H(x) * R >= chord(P) is linear.
    Solved on the exhaustive oracle's dense simplex, not HiGHS."""
    big = largest_unit(fleet)
    free = [g for g in fleet if g.id != big.id]
    root = freq.damping * demand * freq.df_max
    grid = freq.nadir_segments
    points = ((root,) + grid) if root < grid[0] else grid
    best = None
    for bits in itertools.product((0.0, 1.0), repeat=len(free)):
        commit = {big.id: 1.0, **{g.id: b for g, b in zip(free, bits)}}
        h = (sum(g.inertia_const * g.p_max / freq.f0 * commit[g.id]
                 for g in fleet if g.synchronous)
             - freq.largest_unit_rating * freq.largest_unit_inertia / freq.f0)
        if h < 0.0:
            continue
        model, x, p, r = _economic_cell(fleet, demand, floor, commit=commit)
        loss = model.add_continuous("ploss", 0.0, freq.largest_unit_rating)
        for g in fleet:
            model.add_row({loss: 1.0, p[g.id]: -1.0}, SENSE_GE, 0.0)
        model.add_row({loss: 1.0}, SENSE_LE, 2.0 * freq.rocof_max * h)
        model.add_row({**{r[g.id]: 1.0 for g in fleet}, loss: -1.0}, SENSE_GE,
                      -freq.damping * demand * freq.df_ss_max)
        for p0, p1 in zip(points, points[1:]):
            f0 = nadir_requirement(p0, freq, demand)
            slope = (nadir_requirement(p1, freq, demand) - f0) / (p1 - p0)
            model.add_row({**{r[g.id]: h for g in fleet}, loss: -slope},
                          SENSE_GE, f0 - slope * p0)
        got = solve_exhaustive(model)
        if got.status == "optimal" and (best is None or got.objective < best):
            best = got.objective
    return best


def _random_cell(rng):
    """A small fleet, demand and frequency limits for one cell."""
    rating = float(rng.integers(30, 61)) * 10.0
    deload = float(rng.choice([0.0, 0.2, 0.4]))
    fleet = [GeneratorSpec(
        id="big", technology="thermal", p_max=rating, p_min=0.3 * rating,
        inertia_const=float(rng.integers(2, 7)), marginal_cost=10.0,
        deloadable=deload > 0.0, max_deload_fraction=deload)]
    for i in range(int(rng.integers(2, 5))):
        p_max = float(rng.choice([0.4, 0.6, 0.9])) * rating
        fleet.append(GeneratorSpec(
            id=f"u{i}", technology="thermal", p_max=p_max, p_min=0.2 * p_max,
            inertia_const=float(rng.choice([4.0, 10.0, 20.0, 40.0])),
            marginal_cost=float(rng.integers(20, 60)),
            no_load_cost=float(rng.integers(0, 3000)),
            pfr_max=float(rng.choice([0.3, 0.6, 0.9])) * p_max))
    floor = (1.0 - deload) * rating
    demand = rating + float(rng.uniform(0.1, 0.9)) * sum(
        g.p_max for g in fleet[1:])
    df_max = float(rng.choice([0.8, 1.5]))
    freq = FrequencyParams(
        f0=50.0, df_max=df_max, df_ss_max=df_max,
        rocof_max=float(rng.choice([1.0, 2.0])),
        t_d=float(rng.choice([1.0, 2.5, 5.0])),
        # the requirement's root anywhere up to twice the loss floor
        damping=float(rng.uniform(0.0, 1.9)) * floor / (demand * df_max),
        nadir_segments=default_segment_grid(rating, deload),
        largest_unit_rating=rating, largest_unit_inertia=fleet[0].inertia_const)
    return tuple(fleet), demand, floor, freq


def test_bigm_product_exactness():
    """The one-sided product rows reproduce the inertia-response product,
    and the compact cell keeps exactly the optimum of the exact product."""
    fleet = (
        GeneratorSpec(id="big", technology="thermal", p_max=1200.0, p_min=600.0,
                      inertia_const=7.0),
        GeneratorSpec(id="mid1", technology="thermal", p_max=570.0, p_min=171.0,
                      inertia_const=6.0, pfr_max=170.0),
        GeneratorSpec(id="mid2", technology="thermal", p_max=570.0, p_min=171.0,
                      inertia_const=5.0, pfr_max=190.0),
        GeneratorSpec(id="peak", technology="thermal", p_max=600.0, p_min=120.0,
                      inertia_const=4.0, pfr_max=260.0),
        GeneratorSpec(id="nuc", technology="nuclear", p_max=1000.0, p_min=700.0,
                      inertia_const=6.5),
        GeneratorSpec(id="w", technology="wind", p_max=1500.0),
    )
    r_max = sum(g.pfr_max for g in fleet)
    freq = FrequencyParams(
        f0=50.0, df_max=0.8, df_ss_max=0.5, rocof_max=0.125, t_d=10.0,
        damping=0.0, nadir_segments=(1200.0,), largest_unit_rating=1200.0,
        largest_unit_inertia=7.0,
    )
    sync = [g for g in fleet if g.synchronous]
    h_lost = freq.largest_unit_rating * freq.largest_unit_inertia / freq.f0
    rng = np.random.default_rng(11)
    for _ in range(1000):
        x = {g.id: float(rng.integers(0, 2)) for g in fleet}
        model = MilpModel()
        commit = {g.id: model.add_binary(f"x[{g.id}]") for g in fleet}
        for g in fleet:  # a third of the commitments arrive fixed
            if rng.random() < 1.0 / 3.0:
                model.fix_variable(commit[g.id], x[g.id])
        output = [model.add_continuous(f"p[{g.id}]", 0.0, g.p_max)
                  for g in fleet]
        pfr = {g.id: model.add_continuous(f"r[{g.id}]", 0.0, g.pfr_max)
               for g in fleet}
        constants = period_constants(fleet, freq, 2500.0)
        cell = register_decisions(
            model, fleet, freq, constants, r_max, period=0,
            commit=list(commit.values()), output=[output],
            pfr=[list(pfr.values())])
        model.add_block(period_rows(cell, fleet, freq, constants, r_max,
                                    largest=fleet[0], loss_floor=1200.0))
        # the rows that define R and bound the product
        rows = [row for row in model.rows
                if row.label.startswith(("pfr_sum", "bigm_", "hr"))]
        response, product = int(cell.R[0]), int(cell.hr[0])
        bilinear = dict(zip([g.id for g, f in zip(fleet, cell.free) if f],
                            cell.z[0].tolist()))
        values = np.zeros(model.n_vars)
        for g in fleet:
            values[commit[g.id]] = x[g.id]
            values[pfr[g.id]] = rng.uniform(0.0, g.pfr_max)
        r_total = sum(float(values[idx]) for idx in pfr.values())
        defining = [row for row in rows if response in row.coeffs
                    and row.sense == SENSE_EQ]
        assert len(defining) == 1
        values[response] = _row_bound(defining[0], response, values)[1]
        assert abs(values[response] - r_total) <= 1e-12 * max(1.0, r_total)

        # every auxiliary: no row bounds it from below, and the tightest
        # upper bound is exactly x_g * R
        assert set(bilinear) == {g.id for g in sync
                                 if model.lb[commit[g.id]]
                                 != model.ub[commit[g.id]]}
        unknown = set(bilinear.values()) | {product}
        for gid, z in bilinear.items():
            hi = model.ub[z]
            for row in rows:
                if z in row.coeffs and not (set(row.coeffs) - {z}) & unknown:
                    is_upper, bound = _row_bound(row, z, values)
                    assert is_upper and row.sense != SENSE_EQ
                    hi = min(hi, bound)
            assert abs(hi - x[gid] * r_total) <= 1e-9 * max(1.0, r_total)
            values[z] = hi
        # the product variable: its tightest upper bound is exactly H(x) * R
        direct = (sum(g.inertia_const * g.p_max / freq.f0 * x[g.id]
                      for g in sync) - h_lost) * r_total
        bounds = [_row_bound(row, product, values)
                  for row in rows if product in row.coeffs]
        assert len(bounds) == 1 and bounds[0][0]
        assert abs(bounds[0][1] - direct) <= 1e-9 * max(1.0, abs(direct))

    # one-sidedness on a whole cell: besides their own upper-bound rows,
    # z and hr appear only in >= rows with positive coefficients, so a
    # solution can always raise them to the product
    model, *_ = _economic_cell(fleet, 2500.0, 1200.0, freq=freq)
    names = model.names
    for row in model.rows:
        for j in row.coeffs:
            name = names[j]
            if name.startswith(("z[", "hr")) and _ge_coef(row, j) < 0.0:
                assert row.label.startswith(("bigm_", "hr")), row.label

    # the compact cell's HiGHS optimum equals enumeration over commitments
    # with the exact linear H(x) * R >= chord rows
    rng = np.random.default_rng(4)
    optimal = 0
    for _ in range(30):
        cell_fleet, demand, floor, cell_freq = _random_cell(rng)
        model, *_ = _economic_cell(cell_fleet, demand, floor, freq=cell_freq)
        got = solve(model)
        want = _enumerated_optimum(cell_fleet, demand, floor, cell_freq)
        if want is None:
            assert got.status == "infeasible"
            continue
        assert got.status == "optimal"
        assert abs(got.objective - want) <= 2e-6 * max(1.0, abs(want))
        optimal += 1
    assert optimal >= 15
    print("\n[acceptance] big-M product exactness: PASS "
          "(1000 assignments: tightest bounds x*R and H(x)*R within 1e-9; "
          f"{optimal} random cells match the exact-product enumeration)")


def _random_milp(rng):
    n_bin = int(rng.integers(0, 11))
    n_cont = int(rng.integers(1, 21))
    mdl = MilpModel()
    for j in range(n_bin):
        mdl.add_binary(f"b{j}")
    for j in range(n_cont):
        lo = float(rng.integers(-5, 1))
        mdl.add_continuous(f"c{j}", lo, lo + float(rng.integers(1, 9)))
    n = n_bin + n_cont
    for _ in range(int(rng.integers(2, 9))):
        coeffs = {j: float(rng.integers(-3, 4))
                  for j in range(n) if rng.random() < 0.4}
        coeffs = {j: v for j, v in coeffs.items() if v}
        if coeffs:
            sense = ("<=", ">=", "=")[rng.integers(0, 3)]
            mdl.add_row(coeffs, sense, float(rng.integers(-8, 9)))
    mdl.set_objective({j: float(rng.integers(-4, 5)) for j in range(n)})
    return mdl


def test_solver_matches_exhaustive_oracle():
    """HiGHS agrees with brute-force enumeration on the dense simplex."""
    rng = np.random.default_rng(2203)
    optimal = 0
    for _ in range(120):
        mdl = _random_milp(rng)
        bb = solve(mdl)
        brute = solve_exhaustive(mdl)
        assert bb.status == brute.status
        if brute.status == "optimal":
            scale = max(1.0, abs(brute.objective))
            assert abs(bb.objective - brute.objective) <= 1e-6 * scale
            assert not bb.violations
            assert not mdl.compile().check_feasible(brute.values)
            optimal += 1
    assert optimal >= 50
    print(f"\n[acceptance] solver vs exhaustive oracle: PASS "
          f"(120 instances, {optimal} optimal, objectives within 1e-6)")


def test_wind_study_trends(study):
    """Study directions: service costs, largest-unit duty and emissions."""
    big_id = largest_unit(study["base"].generators).id
    cfs, lf, em = {}, {}, {}
    for (cap, mode), (system, tree, on, off) in study["cells"].items():
        cfs[cap, mode] = on.expected_cost - off.expected_cost
        lf[cap, mode] = load_factor(on.trajectory, system, big_id)
        em[cap, mode] = emissions(on.trajectory, system)

    for cap in WIND_LEVELS:
        assert cfs[cap, "optimised"] <= cfs[cap, "fixed"] \
            + REL * max(1.0, abs(cfs[cap, "fixed"]))
        assert lf[cap, "optimised"] <= lf[cap, "fixed"] + REL
    for mode in MODES:
        series = [cfs[cap, mode] for cap in WIND_LEVELS]
        for lower, higher in zip(series, series[1:]):
            assert higher >= lower - REL * max(1.0, abs(lower)), \
                f"{mode}: service cost fell from {lower:.1f} to {higher:.1f}"
    top = WIND_LEVELS[-1]
    assert em[top, "optimised"] <= em[top, "fixed"] \
        + REL * max(1.0, em[top, "fixed"])
    print("\n[acceptance] wind study trends: PASS "
          f"(service cost fixed {cfs[WIND_LEVELS[0], 'fixed']:.0f} -> "
          f"{cfs[top, 'fixed']:.0f}, optimised "
          f"{cfs[WIND_LEVELS[0], 'optimised']:.0f} -> "
          f"{cfs[top, 'optimised']:.0f})")


def _nadir_envelope(p, grid, freq, demand):
    """Piecewise-linear interpolant of the requirement, floored at zero.

    Breakpoints: the grid, led by the requirement's positive root when
    the root lies below it.
    """
    root = freq.damping * demand * freq.df_max
    points = np.asarray(grid if root >= grid[0] else (root,) + tuple(grid))
    values = [nadir_requirement(q, freq, demand) for q in points]
    return max(0.0, float(np.interp(p, points, values)))


def test_loss_discretization_conservative(study):
    """The chord envelope never under-states the nadir requirement of the
    realized loss, and meets it exactly at grid points."""
    cells = grid_hits = 0
    for (cap, mode), (system, tree, on, off) in study["cells"].items():
        freq = system.frequency
        grid = np.asarray(freq.nadir_segments)
        for window in on.windows:
            n_periods, n_branches = window.wind_used.shape
            for t in range(n_periods):
                inertia = sum(
                    g.inertia_const * g.p_max / freq.f0 * window.commit[t, i]
                    for i, g in enumerate(system.generators) if g.synchronous
                ) - freq.largest_unit_rating * freq.largest_unit_inertia / freq.f0
                for s in range(n_branches):
                    cells += 1
                    p = float(window.loss[t, s])
                    held = inertia * sum(float(r) for r in window.pfr[t, :, s])
                    enforced = _nadir_envelope(p, freq.nadir_segments, freq,
                                               window.demand[t])
                    continuous = nadir_requirement(p, freq, window.demand[t])
                    scale = max(1.0, abs(continuous))
                    assert enforced >= continuous - REL * scale
                    assert held >= enforced - REL * max(1.0, abs(enforced))
                    k = int(np.argmin(np.abs(grid - p)))
                    if abs(grid[k] - p) <= 1e-9:
                        grid_hits += 1
                        assert abs(enforced - continuous) <= REL * scale
    assert cells >= 500 and grid_hits >= 1
    print(f"\n[acceptance] loss discretization conservative: PASS "
          f"({cells} cells, {grid_hits} exact grid hits with equality)")


def test_relaxation_monotonicity(study):
    """Dropping the frequency rows never raises a window's objective."""
    windows = 0
    for (cap, mode), (system, tree, on, off) in study["cells"].items():
        options = replace(STUDY_OPTIONS, largest_loss_mode=mode)
        state = default_initial_state(system)
        t0 = 0
        for window in on.windows:
            length = len(window.periods)
            relaxed, _, raw = solve_uc(
                system, slice_tree(tree, t0, length),
                replace(options, frequency_constraints=False,
                        horizon=length,
                        first_stage=min(options.first_stage, length)),
                start_period=t0, initial_state=state)
            assert relaxed is not None, \
                f"{cap:g} MW {mode} window {t0}: {raw.status}"
            slack = (max(window.gap or 0.0, 0.0) + max(relaxed.gap or 0.0, 0.0)
                     + REL) * max(1.0, abs(window.expected_cost))
            assert relaxed.expected_cost <= window.expected_cost + slack, \
                f"{cap:g} MW {mode} window {t0}: relaxed " \
                f"{relaxed.expected_cost:.2f} > secured {window.expected_cost:.2f}"
            windows += 1
            commit_len = min(STUDY_OPTIONS.first_stage, length)
            state = _advance_state(
                state, [g.id for g in system.generators],
                window.commit[:commit_len])
            t0 += commit_len
    assert windows >= 12
    print(f"\n[acceptance] relaxation monotonicity: PASS "
          f"({windows} windows, unsecured objective never above secured)")
