"""Frequency-security constraint rows as solver-agnostic linear pieces.

Everything here maps scheduling decisions (commitments, outputs, response
holdings, the sizable-loss variable) onto linear rows.  One (period,
branch) cell holds:

* the summed response ``R = sum r[g]`` and the sizable loss ``P``, bounded
  below by the output of every unit that can set it;
* the RoCoF and quasi-steady-state requirements (without damping, the
  response clears the loss by ``QSS_MARGIN``);
* one product variable ``hr`` with ``hr <= H(x) * R``: one auxiliary
  ``z[g] <= min(R, r_max * x[g])`` per synchronous unit whose commitment
  is free, and a constant coefficient on ``R`` for the committed ones.
  Outside those upper bounds ``z`` and ``hr`` enter only ``>=`` rows with
  positive coefficients, so the one-sided bounds are exact: the largest
  ``hr`` the rows allow is ``H(x) * R``;
* the chord envelope of the convex nadir requirement, ``hr >= chord(P)``;
* hyperbolic cuts ``mu * H(x) + R / mu >= 2 * chord_sqrt(P)``, which tie
  the shared commitment to each branch's loss without the auxiliaries.

``register_decisions`` is the one place that creates a cell's security
variables, for all branches of a period at once; the scheduler passes in
the period's commitment ids, each branch's output and response ids and
cell tag, after the commitments are fixed.  ``period_rows`` is the one
place that lays out a period's rows, for all its branches at once, as the
arrays and labels of one row block: the inertia floor, then each branch's
``cell_rows``.  ``must_run`` names the units a period's rows force on, so
the scheduler can pin them before the cells are made; it reads the RoCoF,
QSS and nadir numbers from the helpers the rows use (``rocof_slope``,
``qss_rhs``, ``nadir_chords``).  Row construction is pure.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .milp.model import (LinearRow, LinExpr, MilpModel, SENSE_EQ, SENSE_GE,
                         SENSE_LE)

# Hyperbolic cuts per cell (a constant of the formulation, not an input).
HYPERBOLIC_CUTS = 8
# Seconds after the loss at which the quasi-steady-state limit is checked.
SETTLE_TIME = 60.0
# Response held above the loss (MW) when nothing damps the system: the
# deviation then grows without end once R < P, so R >= P must hold clear of
# the solver's rounding, far above its feasibility tolerance.
QSS_MARGIN = 1e-3


@dataclass(frozen=True)
class FreqDecisionSet:
    """Variable ids for one period/scenario cell.

    ``commit``, ``output`` and ``pfr`` map generator id to model variable
    index; ``loss`` is the sizable loss, ``response`` the summed response
    R and ``product`` the inertia-times-response variable.  ``bilinear``
    maps each synchronous unit with a free commitment to its auxiliary;
    ``fixed_on`` holds the synchronous units committed by a fixed bound.
    """

    commit: dict
    output: dict
    pfr: dict
    loss: int
    response: int
    product: int
    bilinear: dict
    fixed_on: frozenset


def _inertia_coef(g, freq) -> float:
    return g.inertia_const * g.p_max / freq.f0


def _lost_inertia(freq) -> float:
    return freq.largest_unit_rating * freq.largest_unit_inertia / freq.f0


def max_inertia(fleet, freq) -> float:
    """Post-loss inertia (MW*s^2) with every synchronous unit committed."""
    return (sum(_inertia_coef(g, freq) for g in fleet if g.synchronous)
            - _lost_inertia(freq))


def register_decisions(model: MilpModel, fleet, freq, r_max: float, *,
                       commit: dict, outputs, pfrs,
                       tags) -> list[FreqDecisionSet]:
    """Create the security variables of one period's cells, one cell per
    branch, and bundle each cell's ids.

    ``commit`` maps generator id to the period's commitment, shared by every
    branch; it must already carry its fixed bounds.  ``outputs`` and
    ``pfrs`` hold one map from generator id to the branch's output and
    response ids per branch, and ``tags`` the branch's cell tag.  The
    variables go in as one block, branch by branch: ``ploss{tag}``,
    ``R{tag}``, ``hr{tag}`` and then one auxiliary ``z[g]{tag}`` per
    synchronous unit whose commitment is free.
    """
    sync = [g.id for g in fleet if g.synchronous]
    cols = [commit[gid] for gid in sync]
    bounds = list(zip(sync, model.lb[cols].tolist(), model.ub[cols].tolist()))
    free = [gid for gid, lo, hi in bounds if lo != hi]
    heads = ["ploss", "R", "hr"] + [f"z[{gid}]" for gid in free]
    ub = [freq.largest_unit_rating, r_max,
          max(max_inertia(fleet, freq), 0.0) * r_max] + [r_max] * len(free)
    ids = model.add_variables([head + tag for tag in tags for head in heads],
                              0.0, ub * len(tags)).reshape(len(tags), len(heads))
    fixed_on = frozenset(gid for gid, lo, hi in bounds if lo == hi == 1.0)
    return [FreqDecisionSet(commit=commit, output=output, pfr=pfr,
                            loss=cell[0], response=cell[1], product=cell[2],
                            bilinear=dict(zip(free, cell[3:])),
                            fixed_on=fixed_on)
            for output, pfr, cell in zip(outputs, pfrs, ids.tolist(),
                                         strict=True)]


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
            expr.add_term(decisions.commit[g.id], _inertia_coef(g, freq))
    expr.constant = -_lost_inertia(freq)
    return expr


def inertia_floor_row(decisions: FreqDecisionSet, fleet, freq,
                      tag: str = "") -> LinearRow:
    """Post-loss inertia must not go negative for any commitment."""
    expr = inertia_expression(decisions, fleet, freq)
    return LinearRow(coeffs=dict(expr.coeffs), sense=SENSE_GE,
                     rhs=-expr.constant, label=f"h_min{tag}")


def rocof_slope(freq) -> float:
    """Post-loss inertia (MW*s^2) the RoCoF limit asks per MW of loss."""
    return 1.0 / (2.0 * freq.rocof_max)


def rocof_row(decisions: FreqDecisionSet, freq, inertia: LinExpr,
              tag: str = "") -> LinearRow:
    """Initial rate-of-change limit: H >= loss / (2 * rocof_max)."""
    coeffs = dict(inertia.coeffs)
    coeffs[decisions.loss] = coeffs.get(decisions.loss, 0.0) - rocof_slope(freq)
    return LinearRow(coeffs=coeffs, sense=SENSE_GE, rhs=-inertia.constant,
                     label=f"rocof{tag}")


def settled_limit(freq, demand: float, h_max: float) -> float:
    """Limit on the settled deviation that keeps the 60-s one within
    ``df_ss_max``.

    After delivery the deviation relaxes from its value at T_d (no lower
    than the nadir, so no lower than -df_max) towards the settled value
    (R - P) / D with the factor eps = exp(-D (60 - T_d) / (2 H)), which
    grows with H.  Evaluated at the largest inertia ``h_max``,
    ``L = df_ss_max - eps * (df_max - df_ss_max) / (1 - eps)`` bounds the
    settled deviation conservatively; it is ``df_ss_max`` itself when the
    two limits coincide.  Without damping (eps = 1), or with delivery
    still under way at 60 s, this bound does not apply and ``df_ss_max``
    is returned.
    """
    gap = freq.df_max - freq.df_ss_max
    d = freq.damping * demand
    if gap == 0.0 or d <= 0.0 or h_max <= 0.0 or freq.t_d >= SETTLE_TIME:
        return freq.df_ss_max
    eps = math.exp(-d * (SETTLE_TIME - freq.t_d) / (2.0 * h_max))
    return freq.df_ss_max - eps * gap / (1.0 - eps)


def qss_rhs(fleet, freq, demand: float) -> float:
    """Least ``R - P`` of the quasi-steady-state row: minus the damping
    relief at the settled limit, or, without damping, ``QSS_MARGIN``."""
    d = freq.damping * demand
    if d == 0.0:
        return QSS_MARGIN
    return -d * settled_limit(freq, demand, max_inertia(fleet, freq))


def qss_row(decisions: FreqDecisionSet, fleet, freq, demand: float,
            tag: str = "") -> LinearRow:
    """Quasi-steady-state recovery: total response covers the loss minus
    the damping relief at the settled limit, or, without damping, the loss
    plus ``QSS_MARGIN``."""
    return LinearRow(coeffs={decisions.response: 1.0, decisions.loss: -1.0},
                     sense=SENSE_GE, rhs=qss_rhs(fleet, freq, demand),
                     label=f"qss{tag}")


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
    """Rows that define R and bound the product variable by H(x) * R.

    ``R = sum r[g]`` over the units that can respond; ``z[g] <= R`` and
    ``z[g] <= r_max * x[g]`` for each free commitment;
    ``hr <= sum c_g z[g] + (sum_{fixed on} c_g - c_L) R``.
    For binary x and 0 <= R <= r_max the tightest bound the rows put on
    ``z[g]`` is ``x[g] * R``, and on ``hr`` it is ``H(x) * R``.  No row
    bounds them from below: both only ever need to be large.
    """
    if r_max <= 0.0:
        raise ValueError("r_max must be positive")
    big_r = decisions.response
    coeffs = {decisions.pfr[g.id]: -1.0 for g in fleet if g.pfr_max > 0.0}
    coeffs[big_r] = 1.0
    rows = [LinearRow(coeffs=coeffs, sense=SENSE_EQ, rhs=0.0,
                      label=f"pfr_sum{tag}")]
    hr = {decisions.product: 1.0}
    committed = -_lost_inertia(freq)
    for g in fleet:
        if g.id in decisions.fixed_on:
            committed += _inertia_coef(g, freq)
        z = decisions.bilinear.get(g.id)
        if z is None:
            continue
        rows.append(LinearRow(coeffs={z: 1.0, big_r: -1.0}, sense=SENSE_LE,
                              rhs=0.0, label=f"bigm_r{tag}[{g.id}]"))
        rows.append(LinearRow(coeffs={z: 1.0, decisions.commit[g.id]: -r_max},
                              sense=SENSE_LE, rhs=0.0,
                              label=f"bigm_x{tag}[{g.id}]"))
        hr[z] = -_inertia_coef(g, freq)
    hr[big_r] = -committed
    rows.append(LinearRow(coeffs=hr, sense=SENSE_LE, rhs=0.0,
                          label=f"hr{tag}"))
    return rows


def _requirement_root(freq, demand: float) -> float:
    """Positive root of the nadir requirement (twice its vertex)."""
    return freq.damping * demand * freq.df_max


def nadir_chords(freq, demand: float) -> list[tuple[float, float]]:
    """The chords ``(slope, icpt)`` of the nadir requirement's envelope:
    ``hr >= slope * P + icpt`` for each.

    The requirement f(P) = P^2 T_d / (4 df_max) - beta P is convex, so on
    each interval between consecutive breakpoints its chord lies on or
    above it, and the largest chord equals f at the breakpoints.  The
    breakpoints are the configured grid, which ``FrequencyParams`` makes
    reach the rating, with the positive root of f put in front when it
    lies below the grid: under the root f <= 0, so a loss below the grid
    is still covered.  Every chord rises with the loss, and so does their
    largest.
    """
    grid = freq.nadir_segments
    turn = _requirement_root(freq, demand) / 2.0
    if grid[0] < turn - 1e-9:
        raise ValueError(
            "segment grid enters the region where the requirement decreases "
            f"(values below {turn:.3f} MW); keep it on the increasing branch, "
            "where the chord envelope is a conservative, non-decreasing bound"
        )
    root = 2.0 * turn
    points = ((root,) + grid) if root < grid[0] else grid
    chords = []
    for p0, p1 in zip(points, points[1:]):
        r0 = nadir_requirement(p0, freq, demand)
        r1 = nadir_requirement(p1, freq, demand)
        slope = (r1 - r0) / (p1 - p0)
        chords.append((slope, r0 - slope * p0))
    return chords


def nadir_discretization_rows(decisions: FreqDecisionSet, freq, demand: float,
                              tag: str = ""):
    """Chord envelope of the nadir requirement: hr >= each chord of
    :func:`nadir_chords`.  With hr >= 0 the rows enforce
    H*R >= hr >= f(P) for every loss in [0, rating], exactly at the
    breakpoints."""
    return [LinearRow(coeffs={decisions.product: 1.0, decisions.loss: -slope},
                      sense=SENSE_GE, rhs=icpt,
                      label=f"nadir_cut{tag}[{i}]")
            for i, (slope, icpt) in enumerate(nadir_chords(freq, demand), 1)]


def hyperbolic_cut_rows(decisions: FreqDecisionSet, fleet, freq,
                        demand: float, r_max: float, loss_floor: float,
                        tag: str = ""):
    """Cuts ``mu * H(x) + R / mu - 2 s P >= 2 c`` for ``HYPERBOLIC_CUTS``
    values of mu, valid for every loss ``P >= loss_floor``.

    For every mu > 0, ``mu H + R / mu >= 2 sqrt(H R)`` (AM-GM, H, R >= 0),
    and the envelope rows give ``H R >= f(P)``.  ``s P + c`` is the chord
    of sqrt(f) over ``[p_a, rating]``, ``p_a = max(loss_floor, root of
    f)``; sqrt(f) is concave there ((sqrt f)'' = -beta^2 / (4 f^1.5)), so
    the chord lies below it, and below the root the chord is negative.
    The cuts therefore remove no point with binary commitments.  A cut is
    tight where ``mu = sqrt(R / H)``; the values run geometrically from
    ``q / H_max`` to ``r_max / q``, with ``q = sqrt(f(p_a))``, or
    ``sqrt(f(rating))`` when ``p_a`` is the root.  Cells without a free
    commitment, or where f <= 0 up to the rating, get none.
    """
    rating = freq.largest_unit_rating
    f_b = nadir_requirement(rating, freq, demand)
    h_max = max_inertia(fleet, freq)
    if not decisions.bilinear or f_b <= 0.0 or h_max <= 0.0:
        return []
    p_a = min(max(loss_floor, _requirement_root(freq, demand)), rating)
    q_a = math.sqrt(max(nadir_requirement(p_a, freq, demand), 0.0))
    q_b = math.sqrt(f_b)
    slope = (q_b - q_a) / (rating - p_a) if rating - p_a > 1e-9 else 0.0
    icpt = q_b - slope * rating
    q = q_a if q_a > 0.0 else q_b
    lo, hi = q / h_max, r_max / q
    inertia = inertia_expression(decisions, fleet, freq)
    rows = []
    for k in range(HYPERBOLIC_CUTS):
        mu = lo * (hi / lo) ** (k / (HYPERBOLIC_CUTS - 1))
        coeffs = {j: mu * c for j, c in inertia.coeffs.items()}
        coeffs[decisions.response] = 1.0 / mu
        coeffs[decisions.loss] = -2.0 * slope
        rows.append(LinearRow(coeffs=coeffs, sense=SENSE_GE,
                              rhs=2.0 * icpt - mu * inertia.constant,
                              label=f"hyp_cut{tag}[{k}]"))
    return rows


def must_run(fleet, freq, demand: float, loss_floor: float, upper):
    """Which units every commitment the cell rows admit keeps on.

    ``upper`` holds each unit's commitment upper bound in the period.
    Unit ``g`` must run when, with ``g`` off and every other unit at its
    upper bound, the most inertia ``H`` and response ``R`` the period can
    have miss, at the loss ``loss_floor``, the RoCoF row, the QSS row or
    the nadir envelope ``H * R >= max chord(P)``; the inertia floor
    ``H >= 0`` asks no more than the RoCoF row.  No requirement falls as
    the loss grows, and the rows admit no loss below the floor, so no
    schedule with ``g`` off passes them.  A shortfall
    within 1e-9 of the requirement's size is not counted, so a schedule
    the rows hold to the solver's tolerance is never cut off.  Returns one
    boolean per unit.
    """
    upper = np.asarray(upper, dtype=float)
    inertia = upper * [_inertia_coef(g, freq) if g.synchronous else 0.0
                       for g in fleet]
    response = upper * [g.pfr_max for g in fleet]
    h = inertia.sum() - _lost_inertia(freq) - inertia
    r = response.sum() - response
    nadir = max((slope * loss_floor + icpt
                 for slope, icpt in nadir_chords(freq, demand)), default=0.0)

    def short(have, need):
        return have < need - 1e-9 * max(1.0, abs(need))

    return (short(h, rocof_slope(freq) * loss_floor)
            | short(r, loss_floor + qss_rhs(fleet, freq, demand))
            | short(h * r, nadir))


def cell_rows(decisions: FreqDecisionSet, fleet, freq, demand: float,
              r_max: float, *, largest, loss_floor: float, tag: str = ""):
    """Every row of one (period, branch) cell but the per-period inertia
    floor.

    ``largest`` is the largest unit; it must be committed, with an output
    the caller's rows keep at or above ``loss_floor``.  Smaller units then
    cannot set the loss, and the hyperbolic cuts hold at every loss.
    """
    # a unit rated at most the floor never out-produces the largest unit
    sources = [g.id for g in fleet
               if g.id == largest.id or g.p_max > loss_floor]
    rows = largest_loss_rows(decisions, fleet, sources, tag=tag)
    rows.append(rocof_row(decisions, freq,
                          inertia_expression(decisions, fleet, freq), tag=tag))
    rows.append(qss_row(decisions, fleet, freq, demand, tag=tag))
    rows += linearize_inertia_pfr(decisions, fleet, freq, r_max, tag=tag)
    rows += nadir_discretization_rows(decisions, freq, demand, tag=tag)
    rows += hyperbolic_cut_rows(decisions, fleet, freq, demand, r_max,
                                loss_floor, tag=tag)
    return rows


def _own_columns(decisions: FreqDecisionSet) -> list[int]:
    """The columns of a cell that no other branch's cell shares, in one
    order for every cell of a period."""
    return [decisions.loss, decisions.response, decisions.product,
            *decisions.output.values(), *decisions.pfr.values(),
            *decisions.bilinear.values()]


def period_rows(cells, fleet, freq, demand: float, r_max: float, *,
                largest, loss_floor: float, tag: str, branch_tags):
    """Every frequency row of one period, as the ``cols, vals, sense, rhs,
    labels`` of :meth:`MilpModel.add_rows`: the inertia floor, tagged
    ``tag``, then the cell rows of each branch in turn, ``cells[s]``
    tagged ``branch_tags[s]``.

    The cells of a period share their commitments, so their rows differ
    only in each cell's own columns.  ``cell_rows`` builds branch 0's; the
    other branches' are copies with each of branch 0's own columns
    replaced by the branch's.  A cell row's label is its kind, the cell's
    tag, then a suffix; kinds hold no bracket and tags start with one, so
    a label's first match of its tag is the tag, and a copy's label has
    the branch's tag there.
    """
    rows = [inertia_floor_row(cells[0], fleet, freq, tag=tag)]
    rows += cell_rows(cells[0], fleet, freq, demand, r_max, largest=largest,
                      loss_floor=loss_floor, tag=branch_tags[0])
    # a short row is padded with zero coefficients on column 0
    k = max(len(row.coeffs) for row in rows)
    cols = np.array([[*row.coeffs, *[0] * (k - len(row.coeffs))]
                     for row in rows])
    vals = np.array([[*row.coeffs.values(), *[0.0] * (k - len(row.coeffs))]
                     for row in rows])
    sense = np.array([row.sense for row in rows])
    rhs = np.array([row.rhs for row in rows])

    own = np.array([_own_columns(cell) for cell in cells])
    order = np.argsort(own[0])
    at = order[np.searchsorted(own[0], cols[1:], sorter=order)
               .clip(max=len(order) - 1)]
    copies = np.where(own[0, at] == cols[1:], own[:, at], cols[1:])
    n = len(cells)
    return (np.concatenate([cols[:1], copies.reshape(-1, k)]),
            np.concatenate([vals[:1], np.tile(vals[1:], (n, 1))]),
            np.concatenate([sense[:1], np.tile(sense[1:], n)]),
            np.concatenate([rhs[:1], np.tile(rhs[1:], n)]),
            [rows[0].label] + [row.label.replace(branch_tags[0], branch_tag, 1)
                               for branch_tag in branch_tags
                               for row in rows[1:]])
