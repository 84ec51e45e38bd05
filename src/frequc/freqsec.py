"""Frequency-security constraint rows as solver-agnostic linear pieces.

Everything here maps scheduling decisions (commitments, outputs, response
holdings, the sizable-loss variable) onto linear rows: the loss bounds,
the RoCoF and quasi-steady-state requirements, the big-M linearization of
the inertia-times-response product, and the chord envelope of the convex
nadir requirement over the loss grid.  ``register_decisions`` is the one
place that creates a cell's security variables; the scheduler passes in
the window's commitment, output and response ids and the cell's tag.  Row
construction is pure.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .milp.model import LinearRow, LinExpr, MilpModel, SENSE_GE, SENSE_LE


@dataclass(frozen=True)
class FreqDecisionSet:
    """Variable ids for one period/scenario cell.

    ``commit``, ``output``, ``pfr`` and ``bilinear`` map generator id to
    model variable index; ``loss`` is the sizable-loss variable.
    """

    commit: dict
    output: dict
    pfr: dict
    loss: int
    bilinear: dict


def register_decisions(model: MilpModel, fleet, freq, r_max: float, *,
                       commit: dict, output: dict, pfr: dict,
                       tag: str = "") -> FreqDecisionSet:
    """Create the security variables of one cell and bundle its ids.

    ``commit``, ``output`` and ``pfr`` map generator id to the window's
    existing variables, so first-stage commitments are shared across
    scenarios.  The sizable loss ``ploss{tag}`` comes first, then one
    big-M auxiliary ``z[g]{tag}`` per synchronous unit.
    """
    loss = model.add_continuous(f"ploss{tag}", 0.0, freq.largest_unit_rating)
    bilinear = {g.id: model.add_continuous(f"z[{g.id}]{tag}", 0.0, r_max)
                for g in fleet if g.synchronous}
    return FreqDecisionSet(commit=commit, output=output, pfr=pfr, loss=loss,
                           bilinear=bilinear)


def largest_loss_rows(decisions: FreqDecisionSet, fleet, eligible=None,
                      tag: str = ""):
    """One bound per loss source: the sizable loss covers its output."""
    ids = [g.id for g in fleet] if eligible is None else list(eligible)
    if not ids:
        warnings.warn("largest-loss rows: no eligible loss sources")
        return []
    rows = []
    for gid in ids:
        rows.append(LinearRow(
            coeffs={decisions.loss: 1.0, decisions.output[gid]: -1.0},
            sense=SENSE_GE, rhs=0.0, label=f"loss_bound{tag}[{gid}]",
        ))
    return rows


def inertia_expression(decisions: FreqDecisionSet, fleet, freq) -> LinExpr:
    """Post-loss system inertia in MW*s^2 as a function of commitments."""
    expr = LinExpr()
    for g in fleet:
        if g.synchronous:
            expr.add_term(decisions.commit[g.id], g.inertia_const * g.p_max / freq.f0)
    expr.constant = -freq.largest_unit_rating * freq.largest_unit_inertia / freq.f0
    return expr


def inertia_floor_row(decisions: FreqDecisionSet, fleet, freq,
                      tag: str = "") -> LinearRow:
    """Post-loss inertia must not go negative for any commitment."""
    expr = inertia_expression(decisions, fleet, freq)
    return LinearRow(coeffs=dict(expr.coeffs), sense=SENSE_GE,
                     rhs=-expr.constant, label=f"h_min{tag}")


def rocof_row(decisions: FreqDecisionSet, freq, inertia: LinExpr,
              tag: str = "") -> LinearRow:
    """Initial rate-of-change limit: H >= loss / (2 * rocof_max)."""
    coeffs = dict(inertia.coeffs)
    coeffs[decisions.loss] = coeffs.get(decisions.loss, 0.0) - 1.0 / (2.0 * freq.rocof_max)
    return LinearRow(coeffs=coeffs, sense=SENSE_GE, rhs=-inertia.constant,
                     label=f"rocof{tag}")


def qss_row(decisions: FreqDecisionSet, freq, demand: float,
            tag: str = "") -> LinearRow:
    """Quasi-steady-state recovery: total response covers the loss minus
    the damping relief."""
    coeffs = {idx: 1.0 for idx in decisions.pfr.values()}
    coeffs[decisions.loss] = -1.0
    rhs = -freq.damping * demand * freq.df_ss_max
    return LinearRow(coeffs=coeffs, sense=SENSE_GE, rhs=rhs, label=f"qss{tag}")


def nadir_beta(freq, demand: float) -> float:
    return freq.damping * demand * freq.t_d / 4.0


def nadir_requirement(p_loss: float, freq, demand: float) -> float:
    """Inertia-times-response needed for the nadir, linear damping rule."""
    if p_loss < 0.0:
        raise ValueError("p_loss must be >= 0")
    quad = p_loss * p_loss * freq.t_d / (4.0 * freq.df_max)
    return quad - nadir_beta(freq, demand) * p_loss


def linearize_inertia_pfr(decisions: FreqDecisionSet, fleet, freq,
                          r_max: float, tag: str = ""):
    """Exact product H*R via one auxiliary per synchronous unit.

    Returns the linear expression for the product and the rows that pin
    each auxiliary z_g to x_g * R.  Exactness holds at every feasible
    point with binary commitments and 0 <= R <= r_max.
    """
    if r_max <= 0.0:
        raise ValueError("r_max must be positive")
    rows = []
    expr = LinExpr()
    all_pfr = list(decisions.pfr.values())
    loss_coef = freq.largest_unit_rating * freq.largest_unit_inertia / freq.f0
    for g in fleet:
        if not g.synchronous:
            continue
        z = decisions.bilinear[g.id]
        x = decisions.commit[g.id]
        # z <= R
        coeffs = {idx: -1.0 for idx in all_pfr}
        coeffs[z] = 1.0
        rows.append(LinearRow(coeffs=coeffs, sense=SENSE_LE, rhs=0.0,
                              label=f"bigm_r{tag}[{g.id}]"))
        # z <= r_max * x
        rows.append(LinearRow(coeffs={z: 1.0, x: -r_max}, sense=SENSE_LE,
                              rhs=0.0, label=f"bigm_x{tag}[{g.id}]"))
        # z >= R - r_max * (1 - x)
        coeffs = {idx: -1.0 for idx in all_pfr}
        coeffs[z] = 1.0
        coeffs[x] = -r_max
        rows.append(LinearRow(coeffs=coeffs, sense=SENSE_GE, rhs=-r_max,
                              label=f"bigm_lo{tag}[{g.id}]"))
        expr.add_term(z, g.inertia_const * g.p_max / freq.f0)
    # subtract the lost unit's share: -(rating * H_L / f0) * R
    for idx in all_pfr:
        expr.add_term(idx, -loss_coef)
    return expr, rows


def nadir_discretization_rows(decisions: FreqDecisionSet, freq, demand: float,
                              hr_expr: LinExpr, tag: str = ""):
    """Chord envelope of the nadir requirement: H*R >= each chord.

    The requirement f(P) = P^2 T_d / (4 df_max) - beta P is convex, so on
    each interval between consecutive breakpoints its chord lies on or
    above it, and the largest chord equals f at the breakpoints.  With
    H*R >= 0 (the inertia floor and R >= 0) the rows therefore enforce
    H*R >= f(P) for every loss in [0, rating], exactly at the breakpoints.

    The breakpoints are the configured grid, which ``FrequencyParams``
    makes reach the rating, with the positive root of f put in front when
    it lies below the grid: under the root f <= 0, so a loss below the
    grid is still covered.
    """
    grid = freq.nadir_segments
    turn = freq.damping * demand * freq.df_max / 2.0
    if grid[0] < turn - 1e-9:
        raise ValueError(
            "segment grid enters the region where the requirement decreases "
            f"(values below {turn:.3f} MW); keep it on the increasing branch, "
            "where the chord envelope is a conservative, non-decreasing bound"
        )
    root = 2.0 * turn  # f vanishes at 0 and at twice its vertex
    points = ((root,) + grid) if root < grid[0] else grid
    rows = []
    for i in range(1, len(points)):
        p0, p1 = points[i - 1], points[i]
        r0 = nadir_requirement(p0, freq, demand)
        r1 = nadir_requirement(p1, freq, demand)
        slope = (r1 - r0) / (p1 - p0)
        coeffs = dict(hr_expr.coeffs)
        coeffs[decisions.loss] = coeffs.get(decisions.loss, 0.0) - slope
        rows.append(LinearRow(
            coeffs=coeffs, sense=SENSE_GE,
            rhs=r0 - slope * p0 - hr_expr.constant,
            label=f"nadir_cut{tag}[{i}]",
        ))
    return rows
