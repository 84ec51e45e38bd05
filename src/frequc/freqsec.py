"""Frequency-security constraint rows, written as arrays over cells.

Everything here maps scheduling decisions (commitments, outputs, response
holdings, the sizable-loss variable) onto linear rows.  One (period,
branch) cell holds:

* the summed response ``R = sum r[g]`` and the sizable loss ``P``, bounded
  below by the output of every unit that can set it;
* the RoCoF and quasi-steady-state requirements (without damping, the
  response clears the loss by ``QSS_MARGIN``; with damping and delivery
  lasting 60 s or more there is no QSS row, since the nadir rows then
  hold the 60-s reading);
* one product variable ``hr`` with ``hr <= H(x) * R``: one auxiliary
  ``z[g] <= min(R, r_max * x[g])`` per synchronous unit whose commitment
  is free, and a constant coefficient on ``R`` for the committed ones.
  Outside those upper bounds ``z`` and ``hr`` enter only ``>=`` rows with
  positive coefficients, so the one-sided bounds are exact: the largest
  ``hr`` the rows allow is ``H(x) * R``;
* the chord envelope of the convex nadir requirement, ``hr >= chord(P)``
  (without damping, or with delivery lasting 60 s or more, at the tighter
  of the nadir and 60-s limits: see ``nadir_limit``);
* hyperbolic cuts ``mu * H(x) + R / mu >= 2 * chord_sqrt(P)``, which tie
  the shared commitment to each branch's loss without the auxiliaries.

``period_constants`` computes, once per period, the numbers the period's
rows share: each unit's inertia, the most post-loss inertia, the QSS
row's right-hand side and the nadir chords, as a :class:`PeriodConstants`
that ``must_run``, ``security_count``, ``register_decisions`` and the row
families read.
``register_decisions`` is the one place that creates the cells' security
variables, for every branch of a period at once, once the commitments are
fixed; it returns the period's columns as the arrays of a
:class:`PeriodCells`.  Each row family returns its rows as a template
over one cell's columns, a list of ``(kind, suffix, sense, slots, vals,
rhs)`` (see :func:`frequc.milp.model.template_rows`), and computes its
numbers in place.  ``period_template`` joins the families' templates
into a period's, the one description of its rows, made once per period
of every window; ``period_rows`` writes a given one as one block, the
inertia floor once, then the body for every branch, and every window
writes that block's numbers from its own (see
:func:`frequc.scheduler.build_uc`).

``must_run`` and ``security_count`` screen a period's commitments
against its rows, to the same 1e-9 (``_least``), reading the RoCoF, QSS
and nadir numbers the rows use (``rocof_slope`` and the period's
constants).  ``must_run`` names the units the rows force on.
``security_count`` counts the fewest units besides the largest that any
commitment the rows admit has on, which ``build_uc``'s ``cover`` row
asks for: the other units must carry the period's highest net demand,
less the largest unit's output, plus the response the nadir needs, at
some loss that also meets the RoCoF and QSS rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .freqdyn import HORIZON
from .milp.model import (SENSE_CODE, SENSE_EQ, SENSE_GE, SENSE_LE, MilpModel,
                         RowBlock, template_rows)

# Hyperbolic cuts per cell (a constant of the formulation, not an input).
HYPERBOLIC_CUTS = 8
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
    committed; ``qss``, the least ``R - P`` of the QSS row, None where
    the period has none (see :func:`qss_rhs`); and
    ``chords``, the nadir envelope's chords ``(slope, icpt)``."""

    demand: float
    inertia: list
    h_max: float
    qss: float | None
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
    commitment is free; ``t`` is ``period``, a number or, in a layout's
    templates, a :func:`frequc.milp.model.period_tag`."""
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


def largest_loss_rows(fleet, eligible) -> list:
    """One bound per loss source: the sizable loss covers its output.
    ``eligible`` holds the sources' positions in ``fleet``."""
    OUT, _, _, _ = _unit_slots(len(fleet))
    return [("loss_bound", f"[{fleet[i].id}]", _GE, [_LOSS, OUT + i],
             [1.0, -1.0], 0.0) for i in eligible]


def inertia_expression(fleet, freq, constants: PeriodConstants) -> list:
    """Post-loss system inertia ``H(x)`` in MW*s^2 as a function of a
    period's commitments, written as the one-row template of the inertia
    floor ``H(x) >= 0``: ``H(x)`` is the row's coefficients on the
    synchronous units' commitments, in fleet order, less its right-hand
    side, the lost inertia."""
    _, _, X, _ = _unit_slots(len(fleet))
    sync = [i for i, g in enumerate(fleet) if g.synchronous]
    return [("h_min", "", _GE, [X + i for i in sync],
             [constants.inertia[i] for i in sync], lost_inertia(freq))]


def inertia_floor_row(inertia) -> list:
    """Post-loss inertia must not go negative for any commitment: the
    template ``inertia_expression`` wrote, as a row of its own."""
    return list(inertia)


def rocof_slope(freq) -> float:
    """Post-loss inertia (MW*s^2) the RoCoF limit asks per MW of loss."""
    return 1.0 / (2.0 * freq.rocof_max)


def rocof_row(freq, inertia) -> list:
    """Initial rate-of-change limit: H >= loss / (2 * rocof_max)."""
    [(_, _, _, slots, coefs, lost)] = inertia
    return [("rocof", "", _GE, slots + [_LOSS], coefs + [-rocof_slope(freq)],
             lost)]


def settled_limit(freq, demand: float, h_max: float) -> float:
    """Limit on the settled deviation that keeps the one at ``HORIZON``
    (60 s) within ``df_ss_max``.

    After delivery the deviation relaxes from its value at T_d (no lower
    than the nadir, so no lower than -df_max) towards the settled value
    (R - P) / D with the factor eps = exp(-D (60 - T_d) / (2 H)), which
    grows with H.  Evaluated at the largest inertia ``h_max``,
    ``L = df_ss_max - eps * (df_max - df_ss_max) / (1 - eps)`` bounds the
    settled deviation conservatively; it is ``df_ss_max`` itself when the
    two limits coincide.  Without damping (eps = 1) this bound does not
    apply and ``df_ss_max`` is returned; the QSS row then does not read
    it, and the nadir rows keep the 60-s deviation within ``df_ss_max``
    (see :func:`nadir_limit`).  With delivery still under way at 60 s the
    bound does not apply either, and ``df_ss_max`` is returned; there is
    no QSS row then (see :func:`qss_rhs`).
    """
    gap = freq.df_max - freq.df_ss_max
    d = freq.damping * demand
    if gap == 0.0 or d <= 0.0 or h_max <= 0.0 or freq.t_d >= HORIZON:
        return freq.df_ss_max
    eps = math.exp(-d * (HORIZON - freq.t_d) / (2.0 * h_max))
    return freq.df_ss_max - eps * gap / (1.0 - eps)


def qss_rhs(freq, demand: float, h_max: float) -> float | None:
    """Least ``R - P`` of the quasi-steady-state row: minus the damping
    relief at the settled limit for the most inertia ``h_max``, or,
    without damping, ``QSS_MARGIN``.

    None, for no row, with damping and delivery lasting ``HORIZON`` (60 s)
    or longer: the nadir rows then hold the 60-s reading within
    ``df_ss_max`` (see :func:`nadir_limit`), and the row would only cut
    schedules the swing check passes.  Without damping the row stays:
    ``R < P`` diverges."""
    d = freq.damping * demand
    if d == 0.0:
        return QSS_MARGIN
    if freq.t_d >= HORIZON:
        return None
    return -d * settled_limit(freq, demand, h_max)


def qss_row(constants: PeriodConstants) -> list:
    """Quasi-steady-state recovery: total response covers the loss minus
    the damping relief at the settled limit, or, without damping, the
    loss plus ``QSS_MARGIN``; no row where ``constants.qss`` is None."""
    if constants.qss is None:
        return []
    return [("qss", "", _GE, [_R, _LOSS], [1.0, -1.0], constants.qss)]


def nadir_beta(freq, demand: float) -> float:
    return freq.damping * demand * freq.t_d / 4.0


def nadir_limit(freq, demand: float) -> float:
    """The deviation the nadir rows hold the nadir within: ``df_max``, or
    ``min(df_max, df_ss_max)`` when the nadir must also secure the reading
    at ``HORIZON`` (60 s).

    That is so without damping: with D = 0 and R >= P + QSS_MARGIN (the QSS
    row) the deviation never falls after its nadir, so the 60-s reading is
    at least the nadir.  It is so too when delivery lasts ``HORIZON`` or
    longer: every reading up to ``t_d`` lies on the delivery-phase piece,
    whose minimum is the one the nadir rule bounds."""
    if freq.damping * demand == 0.0 or freq.t_d >= HORIZON:
        return min(freq.df_max, freq.df_ss_max)
    return freq.df_max


def nadir_requirement(p_loss: float, freq, demand: float) -> float:
    """Inertia-times-response needed for the nadir, linear damping rule,
    with the nadir held within :func:`nadir_limit`."""
    if p_loss < 0.0:
        raise ValueError("p_loss must be >= 0")
    limit = nadir_limit(freq, demand)
    quad = p_loss * p_loss * freq.t_d / (4.0 * limit)
    return quad - nadir_beta(freq, demand) * p_loss


def linearize_inertia_pfr(fleet, freq, constants: PeriodConstants,
                          r_max: float, *, free, fixed_on) -> list:
    """Rows that define R and bound the product variable by H(x) * R.

    ``R = sum r[g]`` over the units that can respond; ``z[g] <= R`` and
    ``z[g] <= r_max * x[g]`` for each unit ``free`` marks (see
    :class:`PeriodCells`);
    ``hr <= sum c_g z[g] + (sum_{fixed on} c_g - c_L) R``, the units
    committed by a fixed bound those ``fixed_on`` marks.
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
    units = [i for i, f in enumerate(free) if f]  # one auxiliary each
    for j, i in enumerate(units):
        template += [("bigm_r", f"[{fleet[i].id}]", _LE, [Z + j, _R],
                      [1.0, -1.0], 0.0),
                     ("bigm_x", f"[{fleet[i].id}]", _LE, [Z + j, X + i],
                      [1.0, -r_max], 0.0)]
    inertia = constants.inertia
    committed = -lost_inertia(freq)  # R's coefficient
    for c, on in zip(inertia, fixed_on):
        if on:
            committed += c
    template.append(("hr", "", _LE, [_HR, *range(Z, Z + len(units)), _R],
                     [1.0, *(-inertia[i] for i in units), -committed], 0.0))
    return template


def _requirement_root(freq, demand: float) -> float:
    """Positive root of the nadir requirement (twice its vertex)."""
    return freq.damping * demand * nadir_limit(freq, demand)


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


def nadir_discretization_rows(constants: PeriodConstants) -> list:
    """Chord envelope of the nadir requirement: hr >= each chord of
    :func:`nadir_chords`.  With hr >= 0 the rows enforce
    H*R >= hr >= f(P) for every loss in [0, rating], exactly at the
    breakpoints."""
    return [("nadir_cut", f"[{i}]", _GE, [_HR, _LOSS], [1.0, -slope], icpt)
            for i, (slope, icpt) in enumerate(constants.chords, 1)]


def hyperbolic_cut_rows(freq, inertia, constants: PeriodConstants,
                        r_max: float, loss_floor: float, *, free) -> list:
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
    ``sqrt(f(rating))`` when ``p_a`` is the root.  Cells where ``free``
    marks no unit, or where f <= 0 up to the rating, get none.
    """
    rating, demand = freq.largest_unit_rating, constants.demand
    f_b = nadir_requirement(rating, freq, demand)
    h_max = constants.h_max
    if not any(free) or f_b <= 0.0 or h_max <= 0.0:
        return []
    [(_, _, _, slots, coefs, lost)] = inertia
    p_a = min(max(loss_floor, _requirement_root(freq, demand)), rating)
    q_a = math.sqrt(max(nadir_requirement(p_a, freq, demand), 0.0))
    q_b = math.sqrt(f_b)
    slope = (q_b - q_a) / (rating - p_a) if rating - p_a > 1e-9 else 0.0
    icpt = q_b - slope * rating
    q = q_a if q_a > 0.0 else q_b
    lo, hi = q / h_max, r_max / q
    template = []
    for k in range(HYPERBOLIC_CUTS):
        mu = lo * (hi / lo) ** (k / (HYPERBOLIC_CUTS - 1))
        template.append(("hyp_cut", f"[{k}]", _GE, slots + [_R, _LOSS],
                         [mu * c for c in coefs] + [1.0 / mu, -2.0 * slope],
                         2.0 * icpt - mu * -lost))
    return template


def _least(need):
    """The least value not short of ``need``: a shortfall within 1e-9 of
    the requirement's size is not counted, so a schedule the rows hold to
    the solver's tolerance is never cut off."""
    return need - 1e-9 * np.maximum(1.0, np.abs(need))


def must_run(fleet, freq, constants: PeriodConstants, loss_floor: float,
             upper, *, largest) -> np.ndarray:
    """Which units every commitment the cell rows admit keeps on, one
    boolean per unit.

    ``upper`` holds each unit's commitment upper bound in the period, and
    ``largest`` is committed.  A set of units is short when its inertia
    ``H`` and response ``R`` miss, at the loss ``loss_floor``, the RoCoF
    row, the QSS row (where the period has one) or the nadir envelope
    ``H * R >= max chord(P)``, each to :func:`_least`'s 1e-9; the inertia
    floor ``H >= 0`` asks no more than the RoCoF row.  No requirement
    falls as the loss grows, and the rows admit no loss below the floor;
    H(x) is at most the committed units' inertia, and ``pfr_cap`` keeps
    ``R`` within their summed ``pfr_max``, ``largest``'s within its rating
    less ``loss_floor`` too (``headroom``, as in :func:`security_count`).
    So unit ``g`` must run when, with ``g`` off and every other unit at its
    upper bound, the period is short.
    """
    upper = np.asarray(upper, dtype=float)
    inertia = upper * constants.inertia
    held = [g.pfr_max if g.id != largest.id else
            min(g.pfr_max, freq.largest_unit_rating - loss_floor)
            for g in fleet]
    response = upper * held
    nadir = max((slope * loss_floor + icpt
                 for slope, icpt in constants.chords), default=0.0)
    least_h = _least(rocof_slope(freq) * loss_floor)
    least_hr = _least(nadir)
    least_r = (-math.inf if constants.qss is None
               else _least(loss_floor + constants.qss))
    h = inertia.sum() - lost_inertia(freq) - inertia
    r = response.sum() - response
    return (h < least_h) | (h * r < least_hr) | (r < least_r)


def security_count(fleet, freq, constants: PeriodConstants,
                   loss_floor: float, upper, *, largest, net: float) -> int:
    """The fewest units besides ``largest`` that any commitment the rows
    admit has on, in a period whose highest net demand is ``net``.

    ``upper`` holds each unit's commitment upper bound in the period, and
    ``largest``, the largest unit, is committed.  ``k`` other units are
    too few when, with ``largest`` and the ``k`` largest inertias ``H``,
    the ``k`` largest ``pfr_max`` ``R_k`` and the ``k`` largest ratings
    ``cap`` of the other units that may run (``upper > 0``), taken apart,
    no loss ``P`` in ``[loss_floor, rating]`` and response ``R`` meet,
    each to :func:`_least`'s 1e-9:

    * the RoCoF row, ``H >= rocof_slope * P``;
    * the QSS row, ``R >= P + qss``, where the period has one;
    * the nadir envelope, ``H * R >= max chord(P)``, with ``R >= 0``;
    * ``R <= R_max``, ``R_k`` plus the most the largest holds,
      ``min(pfr_max, rating - loss_floor)``: ``pfr_sum``, ``pfr_cap``,
      and ``headroom`` with the largest's output at least the floor;
    * energy, ``cap + min(rating, P + pfr_max(largest)) >= net + R``: the
      balance, with the wind at most its availability, gives ``sum p >=
      net``; ``headroom`` gives ``p + r <= p_max * x`` and ``loss_bound``
      ``p(largest) <= P``, and ``pfr_cap`` holds ``r(largest)`` within its
      ``pfr_max``.

    The count is the fewest ``k`` that is not too few, or the number of
    the other units that may run when every ``k`` is; no integer schedule
    the rows admit has fewer others on.

    It is exact in ``P``.  Each requirement rises with ``P``, so RoCoF and
    ``R <= R_max`` leave an interval of losses; on it the energy slack,
    ``cap + min(rating, P + pfr_max) - net`` less the least ``R``,
    ``max(0, P + qss, max chord(P) / H)``, is concave and piecewise
    linear.  So the tests need only be met at the interval's ends (the
    floor, the rating, ``H / rocof_slope`` and where each piece of the
    least ``R`` reaches ``R_max``) and at the slack's kinks
    (``rating - pfr_max(largest)``, the chords' breakpoints and where the
    chords, the QSS line and zero cross).
    """
    upper = np.asarray(upper, dtype=float)
    big = next(i for i, g in enumerate(fleet) if g.id == largest.id)
    others = upper > 0.0
    others[big] = False

    def most(values, first):  # (K, 1): ``first`` plus the k largest others
        values = np.sort(np.asarray(values, dtype=float)[others])[::-1]
        return np.cumsum(np.concatenate(([first], values)))[:, None]

    rating, slope, qss = (freq.largest_unit_rating, rocof_slope(freq),
                          constants.qss)
    h = most(constants.inertia, constants.inertia[big] - lost_inertia(freq))
    r_max = most([g.pfr_max for g in fleet],
                 min(largest.pfr_max, rating - loss_floor))
    cap = most([g.p_max for g in fleet], 0.0)
    a, b = (np.array(part) for part in zip(*constants.chords or [(0.0, 0.0)]))

    # the candidate losses (K, n): every end and kink named above
    with np.errstate(divide="ignore", invalid="ignore"):
        ends = [loss_floor, rating, h / slope, rating - largest.pfr_max,
                (b[1:] - b[:-1]) / (a[:-1] - a[1:]), -b / a,
                (h * r_max - b) / a]
        if qss is not None:
            ends += [-qss, r_max - qss, (b - h * qss) / (h - a)]
        shape = (len(h), 1)
        p = np.concatenate([np.broadcast_to(
            end, np.broadcast_shapes(np.shape(end), shape)) for end in ends],
            axis=1)
    p = np.clip(np.nan_to_num(p, nan=loss_floor), loss_floor, rating)

    # the least response each candidate asks for, and the tests
    need_hr = _least((p[..., None] * a + b).max(axis=-1))
    r_qss = np.maximum(0.0, -math.inf if qss is None else _least(p + qss))
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(h > 0.0, np.maximum(r_qss, need_hr / h), r_qss)
    ok = ((h >= _least(slope * p)) & (r_qss <= r_max)
          & (h * np.where(h > 0.0, r_max, r_qss) >= need_hr)
          & (cap + np.minimum(rating, p + largest.pfr_max)
             >= _least(net + r)))
    enough = np.flatnonzero(ok.any(axis=1))
    return int(enough[0]) if len(enough) else int(others.sum())


def period_template(fleet, freq, constants: PeriodConstants, r_max: float,
                    *, free, fixed_on, largest, loss_floor: float):
    """Every frequency row of one period as templates over one cell's
    slots (see :class:`PeriodCells`), ``(floor, body)``: the inertia
    floor, and one branch's loss bounds, RoCoF and QSS rows, product rows,
    nadir envelope and hyperbolic cuts.  ``free`` and ``fixed_on`` mark
    the synchronous units whose commitment is free and those committed by
    a fixed bound.

    ``largest`` is the largest unit; it must be committed, with an output
    the caller's rows keep at or above ``loss_floor``.  Smaller units then
    cannot set the loss, and the hyperbolic cuts hold at every loss.
    """
    inertia = inertia_expression(fleet, freq, constants)
    # a unit rated at most the floor never out-produces the largest unit
    sources = [i for i, g in enumerate(fleet)
               if g.id == largest.id or g.p_max > loss_floor]
    body = (largest_loss_rows(fleet, sources)
            + rocof_row(freq, inertia)
            + qss_row(constants)
            + linearize_inertia_pfr(fleet, freq, constants, r_max,
                                    free=free, fixed_on=fixed_on)
            + nadir_discretization_rows(constants)
            + hyperbolic_cut_rows(freq, inertia, constants, r_max,
                                  loss_floor, free=free))
    return inertia_floor_row(inertia), body


def period_rows(cells: PeriodCells, template) -> RowBlock:
    """Every frequency row of one period ``t`` as one row block, written
    from ``template``, its :func:`period_template` for ``cells``: the
    inertia floor, tagged ``[t]``, then each branch ``s``'s, ``[t][s]``."""
    floor, body = template
    tag = f"[{cells.period}]"
    branches = [f"{tag}[{s}]" for s in range(len(cells.loss))]
    return template_rows(cells.columns, (floor, [tag]), (body, branches))
