"""Frequency-security constraint rows, written as arrays over cells.

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

``period_constants`` computes, once per period, the numbers the period's
rows share: each unit's inertia, the most post-loss inertia, the QSS
row's right-hand side and the nadir chords, as a :class:`PeriodConstants`
that ``must_run``, ``register_decisions`` and the row families read.
``register_decisions`` is the one place that creates the cells' security
variables, for every branch of a period at once, once the commitments are
fixed; it returns the period's columns as the arrays of a
:class:`PeriodCells`.  Each row family writes one branch's rows as a
template over a cell's columns and ``_rows`` copies it to every branch,
as one row block; ``period_rows``, the one place that lays out a period's
rows, stacks the inertia floor and then each branch's rows of every
family into one block.  ``must_run`` names the units a period's rows
force on; it reads the RoCoF, QSS and nadir numbers the rows use
(``rocof_slope`` and the period's constants).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .milp.model import (SENSE_CODE, SENSE_EQ, SENSE_GE, SENSE_LE, MilpModel,
                         RowBlock)

# Hyperbolic cuts per cell (a constant of the formulation, not an input).
HYPERBOLIC_CUTS = 8
# Seconds after the loss at which the quasi-steady-state limit is checked.
SETTLE_TIME = 60.0
# Response held above the loss (MW) when nothing damps the system: the
# deviation then grows without end once R < P, so R >= P must hold clear of
# the solver's rounding, far above its feasibility tolerance.
QSS_MARGIN = 1e-3

_LE, _GE, _EQ = (SENSE_CODE[s] for s in (SENSE_LE, SENSE_GE, SENSE_EQ))


@dataclass(frozen=True)
class PeriodCells:
    """Column ids of the cells of period ``period``, one per branch, units
    in fleet order: each branch's loss, summed response and product
    ``loss``, ``R`` and ``hr`` ``(S,)``, and its auxiliaries ``z``
    ``(S, free units)``, one per unit that ``free`` marks (synchronous,
    commitment free).
    ``fixed_on`` marks the synchronous units committed by a fixed bound.
    Row ``s`` of ``columns`` is branch ``s``'s cell in the slots that
    templates name: ``loss``, ``R``, ``hr``, the units' outputs, responses
    and commitments, then ``z``.
    """

    period: int
    loss: np.ndarray
    R: np.ndarray
    hr: np.ndarray
    z: np.ndarray
    free: np.ndarray
    fixed_on: np.ndarray
    columns: np.ndarray


# slots of a cell's loss, R and hr in ``PeriodCells.columns``
_LOSS, _R, _HR = 0, 1, 2


def _unit_slots(n_units: int) -> tuple[int, int, int, int]:
    """``OUT, PFR, X, Z``: unit i's output, response and commitment and
    auxiliary j sit in slots OUT + i, PFR + i, X + i and Z + j."""
    return 3, 3 + n_units, 3 + 2 * n_units, 3 + 3 * n_units


def lost_inertia(freq) -> float:
    """Inertia (MW*s^2) the largest unit takes with it when it trips."""
    return freq.largest_unit_rating * freq.largest_unit_inertia / freq.f0


def inertia_coefficients(fleet, freq) -> np.ndarray:
    """Inertia (MW*s^2) each unit adds when committed, in fleet order: 0 for
    a unit that is not synchronous."""
    return np.array([g.inertia_const * g.p_max / freq.f0 if g.synchronous
                     else 0.0 for g in fleet])


@dataclass(frozen=True)
class PeriodConstants:
    """The numbers a period's frequency rows share, at net demand
    ``demand``: ``inertia``, the inertia (MW*s^2) each unit adds when
    committed, in fleet order (0 for a unit that is not synchronous);
    ``h_max``, the post-loss inertia with every synchronous unit
    committed; ``qss``, the least ``R - P`` of the QSS row; and
    ``chords``, the nadir envelope's chords ``(slope, icpt)``."""

    demand: float
    inertia: list
    h_max: float
    qss: float
    chords: list


def period_constants(fleet, freq, demand: float) -> PeriodConstants:
    """The shared numbers of a period with net demand ``demand``.  Raises
    ``ValueError`` when the segment grid enters the region where the nadir
    requirement decreases (see :func:`nadir_chords`)."""
    inertia = inertia_coefficients(fleet, freq).tolist()
    h_max = sum(inertia) - lost_inertia(freq)
    return PeriodConstants(demand, inertia, h_max,
                           qss_rhs(freq, demand, h_max),
                           nadir_chords(freq, demand))


def register_decisions(model: MilpModel, fleet, freq,
                       constants: PeriodConstants, r_max: float, *,
                       period: int, commit, output, pfr) -> PeriodCells:
    """Create the security variables of one period's cells, one per branch,
    from the period's commitment ids ``commit`` ``(units,)``, which must
    carry their fixed bounds, and each branch's output and response ids
    ``output`` and ``pfr`` ``(S, units)``, all in fleet order.  They go in
    as one block, branch by branch: ``ploss[t][s]``, ``R[t][s]``,
    ``hr[t][s]``, then ``z[g][t][s]`` for each synchronous unit whose
    commitment is free."""
    commit, output, pfr = map(np.asarray, (commit, output, pfr))
    sync = np.array([g.synchronous for g in fleet])
    lo, hi = model.lb[commit], model.ub[commit]
    free = sync & (lo != hi)
    heads = ["ploss", "R", "hr"] + [f"z[{g.id}]"
                                    for g, f in zip(fleet, free) if f]
    ub = [freq.largest_unit_rating, r_max,
          max(constants.h_max, 0.0) * r_max] + [r_max] * free.sum()
    n = len(output)
    ids = model.add_variables(
        [f"{head}[{period}][{s}]" for s in range(n) for head in heads],
        0.0, ub * n).reshape(n, len(heads))
    return PeriodCells(
        period=period, loss=ids[:, _LOSS], R=ids[:, _R], hr=ids[:, _HR],
        z=ids[:, 3:], free=free, fixed_on=sync & (lo == 1.0) & (hi == 1.0),
        columns=np.concatenate([ids[:, :3], output, pfr,
                                commit[None].repeat(len(output), axis=0),
                                ids[:, 3:]], axis=1))


def _rows(cells: PeriodCells, template, tags) -> RowBlock:
    """The rows of ``template`` written for every branch of ``tags``, one
    branch after the other.  A template row ``(kind, suffix, sense, slots,
    vals, rhs)`` reads the columns ``cells.columns[s, slots]`` in branch
    ``s`` and is labelled ``kind + tags[s] + suffix``; short rows are
    padded with zero coefficients."""
    n = len(tags)
    if not template:
        return RowBlock(np.zeros((0, 1), dtype=np.int64), np.zeros((0, 1)),
                        np.zeros(0, dtype=np.int8), np.zeros(0), [])
    kinds, suffixes, sense, slots, vals, rhs = zip(*template)
    widths = [*map(len, slots)]
    k = max(widths)
    if min(widths) < k:
        slots = [row + [0] * (k - len(row)) for row in slots]
        vals = [row + [0.0] * (k - len(row)) for row in vals]
    # each row's coefficients, sense code and right-hand side, every branch
    numbers = np.array([[*v, c, r] for v, c, r in zip(vals, sense, rhs)],
                       dtype=float).reshape(1, -1, k + 2)
    numbers = numbers.repeat(n, axis=0).reshape(-1, k + 2)
    return RowBlock(cells.columns[:n, np.array(slots, dtype=np.int64)]
                    .reshape(-1, k),
                    numbers[:, :k], numbers[:, k].astype(np.int8),
                    numbers[:, k + 1],
                    [f"{kind}{tag}{suffix}" for tag in tags
                     for kind, suffix in zip(kinds, suffixes)])


def _stack(head: RowBlock, blocks, groups: int) -> RowBlock:
    """The rows of ``head``, then those of ``blocks`` group by group, as
    one block: each of ``blocks`` holds ``groups`` runs of rows of equal
    length, one per branch, and run ``s`` of the result is run ``s`` of
    each block in turn.  Short rows are padded with zero coefficients."""
    k = max(b.cols.shape[1] for b in (head, *blocks))
    runs = [len(b) // groups for b in blocks]
    h, m = len(head), sum(runs)
    cols = np.zeros((h + groups * m, k), dtype=np.int64)
    vals = np.zeros(cols.shape)
    sense, rhs = np.empty(len(cols), dtype=np.int8), np.empty(len(cols))
    w = head.cols.shape[1]
    cols[:h, :w], vals[:h, :w], sense[:h], rhs[:h] = (head.cols, head.vals,
                                                     head.sense, head.rhs)
    body = (cols[h:].reshape(groups, m, k), vals[h:].reshape(groups, m, k),
            sense[h:].reshape(groups, m), rhs[h:].reshape(groups, m))
    at = 0
    for b, n in zip(blocks, runs):
        w = b.cols.shape[1]
        body[0][:, at:at + n, :w] = b.cols.reshape(groups, n, w)
        body[1][:, at:at + n, :w] = b.vals.reshape(groups, n, w)
        body[2][:, at:at + n] = b.sense.reshape(groups, n)
        body[3][:, at:at + n] = b.rhs.reshape(groups, n)
        at += n
    labels = [*head.labels]
    for s in range(groups):
        for b, n in zip(blocks, runs):
            labels += b.labels[s * n:(s + 1) * n]
    return RowBlock(cols, vals, sense, rhs, labels)


def largest_loss_rows(cells: PeriodCells, fleet, eligible, tags) -> RowBlock:
    """One bound per loss source in each branch: the sizable loss covers
    its output.  ``eligible`` holds the sources' positions in ``fleet``,
    ``tags`` each branch's cell tag."""
    OUT, _, _, _ = _unit_slots(len(fleet))
    return _rows(cells, [("loss_bound", f"[{fleet[i].id}]", _GE,
                          [_LOSS, OUT + i], [1.0, -1.0], 0.0)
                         for i in eligible], tags)


def inertia_expression(fleet, freq, constants: PeriodConstants) -> list:
    """Post-loss system inertia ``H(x)`` in MW*s^2 as a function of a
    period's commitments, written as the one-row template (see ``_rows``)
    of the inertia floor ``H(x) >= 0``: ``H(x)`` is the row's coefficients
    on the synchronous units' commitments, in fleet order, less its
    right-hand side, the lost inertia."""
    _, _, X, _ = _unit_slots(len(fleet))
    sync = [i for i, g in enumerate(fleet) if g.synchronous]
    return [("h_min", "", _GE, [X + i for i in sync],
             [constants.inertia[i] for i in sync], lost_inertia(freq))]


def inertia_floor_row(cells: PeriodCells, inertia, tag: str) -> RowBlock:
    """Post-loss inertia must not go negative for any commitment."""
    return _rows(cells, inertia, [tag])


def rocof_slope(freq) -> float:
    """Post-loss inertia (MW*s^2) the RoCoF limit asks per MW of loss."""
    return 1.0 / (2.0 * freq.rocof_max)


def rocof_row(cells: PeriodCells, freq, inertia, tags) -> RowBlock:
    """Initial rate-of-change limit in each branch:
    H >= loss / (2 * rocof_max)."""
    [(_, _, _, slots, coefs, lost)] = inertia
    return _rows(cells, [("rocof", "", _GE, slots + [_LOSS],
                          coefs + [-rocof_slope(freq)], lost)], tags)


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


def qss_rhs(freq, demand: float, h_max: float) -> float:
    """Least ``R - P`` of the quasi-steady-state row: minus the damping
    relief at the settled limit for the most inertia ``h_max``, or,
    without damping, ``QSS_MARGIN``."""
    d = freq.damping * demand
    if d == 0.0:
        return QSS_MARGIN
    return -d * settled_limit(freq, demand, h_max)


def qss_row(cells: PeriodCells, constants: PeriodConstants,
            tags) -> RowBlock:
    """Quasi-steady-state recovery in each branch: total response covers
    the loss minus the damping relief at the settled limit, or, without
    damping, the loss plus ``QSS_MARGIN``."""
    return _rows(cells, [("qss", "", _GE, [_R, _LOSS], [1.0, -1.0],
                          constants.qss)], tags)


def nadir_beta(freq, demand: float) -> float:
    return freq.damping * demand * freq.t_d / 4.0


def nadir_requirement(p_loss: float, freq, demand: float) -> float:
    """Inertia-times-response needed for the nadir, linear damping rule."""
    if p_loss < 0.0:
        raise ValueError("p_loss must be >= 0")
    quad = p_loss * p_loss * freq.t_d / (4.0 * freq.df_max)
    return quad - nadir_beta(freq, demand) * p_loss


def linearize_inertia_pfr(cells: PeriodCells, fleet, freq,
                          constants: PeriodConstants, r_max: float,
                          tags) -> RowBlock:
    """Rows that define R and bound the product variable by H(x) * R, in
    each branch.

    ``R = sum r[g]`` over the units that can respond; ``z[g] <= R`` and
    ``z[g] <= r_max * x[g]`` for each free commitment;
    ``hr <= sum c_g z[g] + (sum_{fixed on} c_g - c_L) R``.
    For binary x and 0 <= R <= r_max the tightest bound the rows put on
    ``z[g]`` is ``x[g] * R``, and on ``hr`` it is ``H(x) * R``.  No row
    bounds them from below: both only ever need to be large.
    """
    if r_max <= 0.0:
        raise ValueError("r_max must be positive")
    _, PFR, X, Z = _unit_slots(len(fleet))
    respond = [PFR + i for i, g in enumerate(fleet) if g.pfr_max > 0.0]
    template = [("pfr_sum", "", _EQ, respond + [_R],
                 [-1.0] * len(respond) + [1.0], 0.0)]
    free = np.flatnonzero(cells.free).tolist()
    for j, i in enumerate(free):
        template += [("bigm_r", f"[{fleet[i].id}]", _LE, [Z + j, _R],
                      [1.0, -1.0], 0.0),
                     ("bigm_x", f"[{fleet[i].id}]", _LE, [Z + j, X + i],
                      [1.0, -r_max], 0.0)]
    coefficients = constants.inertia
    committed = -lost_inertia(freq)
    for i in np.flatnonzero(cells.fixed_on).tolist():
        committed += coefficients[i]
    template.append(("hr", "", _LE, [_HR, *range(Z, Z + len(free)), _R],
                     [1.0, *(-coefficients[i] for i in free), -committed],
                     0.0))
    return _rows(cells, template, tags)


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
    values = [nadir_requirement(p, freq, demand) for p in points]
    chords = []
    for p0, p1, r0, r1 in zip(points, points[1:], values, values[1:]):
        slope = (r1 - r0) / (p1 - p0)
        chords.append((slope, r0 - slope * p0))
    return chords


def nadir_discretization_rows(cells: PeriodCells,
                              constants: PeriodConstants, tags) -> RowBlock:
    """Chord envelope of the nadir requirement in each branch: hr >= each
    chord of :func:`nadir_chords`.  With hr >= 0 the rows enforce
    H*R >= hr >= f(P) for every loss in [0, rating], exactly at the
    breakpoints."""
    return _rows(cells, [("nadir_cut", f"[{i}]", _GE, [_HR, _LOSS],
                          [1.0, -slope], icpt)
                         for i, (slope, icpt)
                         in enumerate(constants.chords, 1)], tags)


def hyperbolic_cut_rows(cells: PeriodCells, freq, inertia,
                        constants: PeriodConstants, r_max: float,
                        loss_floor: float, tags) -> RowBlock:
    """Cuts ``mu * H(x) + R / mu - 2 s P >= 2 c`` in each branch for
    ``HYPERBOLIC_CUTS`` values of mu, valid for every loss
    ``P >= loss_floor``.

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
    if not cells.free.any():
        return _rows(cells, [], tags)
    rating, demand = freq.largest_unit_rating, constants.demand
    f_b = nadir_requirement(rating, freq, demand)
    h_max = constants.h_max
    if f_b <= 0.0 or h_max <= 0.0:
        return _rows(cells, [], tags)
    p_a = min(max(loss_floor, _requirement_root(freq, demand)), rating)
    q_a = math.sqrt(max(nadir_requirement(p_a, freq, demand), 0.0))
    q_b = math.sqrt(f_b)
    slope = (q_b - q_a) / (rating - p_a) if rating - p_a > 1e-9 else 0.0
    icpt = q_b - slope * rating
    q = q_a if q_a > 0.0 else q_b
    lo, hi = q / h_max, r_max / q
    [(_, _, _, slots, coefs, lost)] = inertia
    template = []
    for k in range(HYPERBOLIC_CUTS):
        mu = lo * (hi / lo) ** (k / (HYPERBOLIC_CUTS - 1))
        template.append(("hyp_cut", f"[{k}]", _GE, slots + [_R, _LOSS],
                         [mu * c for c in coefs] + [1.0 / mu, -2.0 * slope],
                         2.0 * icpt - mu * -lost))
    return _rows(cells, template, tags)


def must_run(fleet, freq, constants: PeriodConstants, loss_floor: float,
             upper):
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
    inertia = upper * constants.inertia
    response = upper * [g.pfr_max for g in fleet]
    h = inertia.sum() - lost_inertia(freq) - inertia
    r = response.sum() - response
    nadir = max((slope * loss_floor + icpt
                 for slope, icpt in constants.chords), default=0.0)

    def short(have, need):
        return have < need - 1e-9 * max(1.0, abs(need))

    return (short(h, rocof_slope(freq) * loss_floor)
            | short(r, loss_floor + constants.qss)
            | short(h * r, nadir))


def period_rows(cells: PeriodCells, fleet, freq, constants: PeriodConstants,
                r_max: float, *, largest, loss_floor: float) -> RowBlock:
    """Every frequency row of one period ``t`` as one row block: the
    inertia floor, tagged ``[t]``, then each branch ``s``'s rows in turn,
    tagged ``[t][s]``: its loss bounds, RoCoF and QSS rows, product rows,
    nadir envelope and hyperbolic cuts.

    ``largest`` is the largest unit; it must be committed, with an output
    the caller's rows keep at or above ``loss_floor``.  Smaller units then
    cannot set the loss, and the hyperbolic cuts hold at every loss.
    """
    tag = f"[{cells.period}]"
    tags = [f"{tag}[{s}]" for s in range(len(cells.loss))]
    inertia = inertia_expression(fleet, freq, constants)
    # a unit rated at most the floor never out-produces the largest unit
    sources = [i for i, g in enumerate(fleet)
               if g.id == largest.id or g.p_max > loss_floor]
    return _stack(inertia_floor_row(cells, inertia, tag), [
        largest_loss_rows(cells, fleet, sources, tags),
        rocof_row(cells, freq, inertia, tags),
        qss_row(cells, constants, tags),
        linearize_inertia_pfr(cells, fleet, freq, constants, r_max, tags),
        nadir_discretization_rows(cells, constants, tags),
        hyperbolic_cut_rows(cells, freq, inertia, constants, r_max,
                            loss_floor, tags),
    ], len(tags))
