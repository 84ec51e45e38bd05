"""The window builder as a loop over cells and units, one ``add_row`` per
row, with each frequency cell's rows built one ``LinearRow`` dict at a
time: the form ``frequc.scheduler.build_uc`` and ``frequc.freqsec`` had
before they wrote each row family as arrays.  The tests require the two
compiled models to be equal, column for column and row for row.

The cell builders below (``register_decisions`` to ``cell_rows``) are kept
as they were; they read only the scalar helpers of ``frequc.freqsec``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from frequc import freqsec
from frequc.freqsec import (HYPERBOLIC_CUTS, _requirement_root, lost_inertia,
                            nadir_chords, nadir_requirement, qss_rhs,
                            rocof_slope)
from frequc.milp import LinearRow, MilpModel, ModelError
from frequc.milp.model import SENSE_EQ, SENSE_GE, SENSE_LE
from frequc.scheduler import (
    SchedulerError,
    UcOptions,
    _largest_runs_deloaded,
    _units_to_cover,
    _window_net,
    default_initial_state,
)
from frequc.sysmodel import largest_unit

# -- one frequency cell as LinearRow dicts ------------------------------------


@dataclass
class LinExpr:
    """Affine expression sum(coeffs[j] * x[j]) + constant."""

    coeffs: dict[int, float] = field(default_factory=dict)
    constant: float = 0.0

    def add_term(self, index: int, coeff: float) -> None:
        self.coeffs[index] = self.coeffs.get(index, 0.0) + coeff

    def value(self, x: np.ndarray) -> float:
        return self.constant + sum(c * x[j] for j, c in self.coeffs.items())


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


def max_inertia(fleet, freq) -> float:
    """Post-loss inertia (MW*s^2) with every synchronous unit committed."""
    return sum(_inertia_coef(g, freq) for g in fleet
               if g.synchronous) - lost_inertia(freq)


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
    expr.constant = -lost_inertia(freq)
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
    coeffs[decisions.loss] = coeffs.get(decisions.loss, 0.0) - rocof_slope(freq)
    return LinearRow(coeffs=coeffs, sense=SENSE_GE, rhs=-inertia.constant,
                     label=f"rocof{tag}")


def qss_row(decisions: FreqDecisionSet, fleet, freq, demand: float,
            tag: str = "") -> list:
    """Quasi-steady-state recovery: total response covers the loss minus
    the damping relief at the settled limit, or, without damping, the loss
    plus ``QSS_MARGIN``; none where ``qss_rhs`` is None."""
    rhs = qss_rhs(freq, demand, max_inertia(fleet, freq))
    if rhs is None:
        return []
    return [LinearRow(coeffs={decisions.response: 1.0, decisions.loss: -1.0},
                      sense=SENSE_GE, rhs=rhs, label=f"qss{tag}")]


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
    committed = -lost_inertia(freq)
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
    rows += qss_row(decisions, fleet, freq, demand, tag=tag)
    rows += linearize_inertia_pfr(decisions, fleet, freq, r_max, tag=tag)
    rows += nadir_discretization_rows(decisions, freq, demand, tag=tag)
    rows += hyperbolic_cut_rows(decisions, fleet, freq, demand, r_max,
                                loss_floor, tag=tag)
    return rows


# -- the window ---------------------------------------------------------------


def fix_variable(model, index, value):
    """Pin a column to one value by collapsing its bounds; a value outside
    them, NaN included, is rejected."""
    v = float(value)
    lo, hi = float(model.lb[index]), float(model.ub[index])
    if not lo - 1e-12 <= v <= hi + 1e-12:
        raise ModelError(f"variable {model.names[index]}: cannot fix to "
                         f"{v}, outside [{lo}, {hi}]")
    model.lb[index] = model.ub[index] = v


def build_uc_loop(system, tree, options: UcOptions, *, start_period: int = 0,
                  initial_state=None, fixed_commitments=None,
                  security_pins: bool = True) -> MilpModel:
    """Assemble the scheduling model for one window.

    ``tree`` spans the demand profile, and the window reads its periods
    from ``start_period`` on, at most ``options.horizon`` of them.
    ``fixed_commitments`` (0/1 values of shape
    ``(T, units)``, units in fleet order) pins the commitment variables;
    the rolling solver uses this for the realized re-dispatch.  With
    ``security_pins`` off, the free commitments that ``freqsec.must_run``
    finds forced on stay free, and the cover rows ask only for capacity,
    not for ``freqsec.security_count``.
    """
    fleet = system.generators
    freq = system.frequency
    big = largest_unit(fleet)
    demand, net = _window_net(system, tree, start_period, options.horizon)
    n_periods, n_branches = net.shape
    probs = tree.probabilities.tolist()
    avail = demand[:, None] - net

    floor_big = ((1.0 - big.max_deload_fraction) * big.p_max
                 if _largest_runs_deloaded(options, big) else big.p_max)
    for t in range(n_periods):
        if floor_big > demand[t] + 1e-9:
            raise SchedulerError(
                f"period {start_period + t}: demand {demand[t]:.1f} MW cannot "
                f"absorb the committed largest plant minimum {floor_big:.1f} MW"
            )

    r_max = sum(g.pfr_max for g in fleet)
    if options.frequency_constraints and r_max <= 0.0:
        raise SchedulerError(
            "frequency constraints need at least one unit with response capability"
        )

    if initial_state is None:
        initial_state = default_initial_state(system)
    on, hours = initial_state

    model = MilpModel(name=f"uc_p{start_period}_{n_periods}x{n_branches}")

    # first-stage commitment, start and stop indicators (shared by branches)
    x = {}
    su = {}
    sd = {}
    for g in fleet:
        for t in range(n_periods):
            tt = start_period + t
            x[g.id, t] = model.add_binary(f"x[{g.id}][{tt}]")
            su[g.id, t] = model.add_continuous(f"su[{g.id}][{tt}]", 0.0, 1.0)
            sd[g.id, t] = model.add_continuous(f"sd[{g.id}][{tt}]", 0.0, 1.0)

    # recourse dispatch per period and branch
    p = {}
    r = {}
    wind = {}
    for t in range(n_periods):
        tt = start_period + t
        for s in range(n_branches):
            for g in fleet:
                p[g.id, t, s] = model.add_continuous(
                    f"p[{g.id}][{tt}][{s}]", 0.0, g.p_max)
                # largest-plant operating mode: its output's lower bound
                if g.id == big.id:
                    model.lb[p[g.id, t, s]] = floor_big
                r[g.id, t, s] = model.add_continuous(
                    f"r[{g.id}][{tt}][{s}]", 0.0, g.pfr_max)
            wind[t, s] = model.add_continuous(
                f"wind[{tt}][{s}]", 0.0, max(avail[t, s], 0.0))

    # the largest plant is committed throughout; minimum-time carry and
    # externally pinned schedules come next and must agree with it
    for t in range(n_periods):
        fix_variable(model, x[big.id, t], 1.0)
    try:
        for i, g in enumerate(fleet):
            if on[i] and hours[i] < g.min_up:
                for t in range(min(g.min_up - hours[i], n_periods)):
                    fix_variable(model, x[g.id, t], 1.0)
            elif not on[i] and hours[i] < g.min_down:
                for t in range(min(g.min_down - hours[i], n_periods)):
                    fix_variable(model, x[g.id, t], 0.0)
        if fixed_commitments is not None:
            if len(fixed_commitments) < n_periods:
                raise SchedulerError(
                    f"fixed commitments cover {len(fixed_commitments)} of "
                    f"{n_periods} window periods"
                )
            for i, g in enumerate(fleet):
                for t in range(n_periods):
                    fix_variable(
                        model, x[g.id, t],
                        round(float(fixed_commitments[t][i])))
    except ModelError as exc:
        raise SchedulerError(
            f"commitment requirements conflict: {exc}"
        ) from exc

    # security must-run pins, one unit at a time, and the fewest other
    # units that carry the period's highest net demand securely, counted
    # where a commitment stays free after the pins
    secure = [0] * n_periods
    if options.frequency_constraints and security_pins:
        for t in range(n_periods):
            try:
                constants = freqsec.period_constants(fleet, freq, demand[t])
            except ValueError as exc:  # the grid check, an input error
                raise SchedulerError(f"period {start_period + t}: {exc}") \
                    from exc
            upper = [model.ub[x[g.id, t]] for g in fleet]
            pins = freqsec.must_run(fleet, freq, constants, floor_big, upper,
                                    largest=big)
            for g, pin in zip(fleet, pins):
                if pin and model.lb[x[g.id, t]] != model.ub[x[g.id, t]]:
                    fix_variable(model, x[g.id, t], 1.0)
            if any(model.lb[x[g.id, t]] != model.ub[x[g.id, t]]
                   for g in fleet):
                secure[t] = freqsec.security_count(
                    fleet, freq, constants, floor_big, upper, largest=big,
                    net=float(net[t].max()))

    # each cell's security variables, one cell at a time, once the fixed
    # commitments are known: a unit committed by a fixed bound needs no
    # product auxiliary
    cells = {}
    if options.frequency_constraints:
        for t in range(n_periods):
            for s in range(n_branches):
                [cells[t, s]] = register_decisions(
                    model, fleet, freq, r_max,
                    commit={g.id: x[g.id, t] for g in fleet},
                    outputs=[{g.id: p[g.id, t, s] for g in fleet}],
                    pfrs=[{g.id: r[g.id, t, s] for g in fleet}],
                    tags=[f"[{start_period + t}][{s}]"])

    def add(row):
        model.add_row(row.coeffs, row.sense, row.rhs, row.label)

    # power balance and unit limits
    for t in range(n_periods):
        tt = start_period + t
        for s in range(n_branches):
            coeffs = {p[g.id, t, s]: 1.0 for g in fleet}
            coeffs[wind[t, s]] = 1.0
            model.add_row(coeffs, SENSE_EQ, demand[t], f"balance[{tt}][{s}]")
            for g in fleet:
                if g.p_min > 0.0:
                    model.add_row(
                        {p[g.id, t, s]: 1.0, x[g.id, t]: -g.p_min},
                        SENSE_GE, 0.0, f"pmin[{g.id}][{tt}][{s}]")
                model.add_row(
                    {p[g.id, t, s]: 1.0, r[g.id, t, s]: 1.0,
                     x[g.id, t]: -g.p_max},
                    SENSE_LE, 0.0, f"headroom[{g.id}][{tt}][{s}]")
                if g.pfr_max > 0.0:
                    model.add_row(
                        {r[g.id, t, s]: 1.0, x[g.id, t]: -g.pfr_max},
                        SENSE_LE, 0.0, f"pfr_cap[{g.id}][{tt}][{s}]")

    # cover: every branch's thermal output reaches its net demand, the
    # largest unit gives at most its rating and every other unit at most
    # its committed rating, and a secured period has at least secure[t] of
    # them on, so at least k_t of them are on
    others = [g for g in fleet if g.id != big.id]
    for t in range(n_periods):
        k = max(_units_to_cover([g.p_max for g in others],
                                float(net[t].max()) - big.p_max), secure[t])
        if k > 0:
            model.add_row({x[g.id, t]: 1.0 for g in others}, SENSE_GE,
                          float(k), f"cover[{start_period + t}]")

    # start/stop linking and minimum up/down times
    for i, g in enumerate(fleet):
        for t in range(n_periods):
            tt = start_period + t
            coeffs = {x[g.id, t]: 1.0, su[g.id, t]: -1.0, sd[g.id, t]: 1.0}
            if t == 0:
                model.add_row(coeffs, SENSE_EQ, 1.0 if on[i] else 0.0,
                              f"commit_link[{g.id}][{tt}]")
            else:
                coeffs[x[g.id, t - 1]] = -1.0
                model.add_row(coeffs, SENSE_EQ, 0.0,
                              f"commit_link[{g.id}][{tt}]")
        if g.min_up > 1:
            for t in range(n_periods):
                coeffs = {su[g.id, tau]: 1.0
                          for tau in range(max(0, t - g.min_up + 1), t + 1)}
                coeffs[x[g.id, t]] = -1.0
                model.add_row(coeffs, SENSE_LE, 0.0,
                              f"min_up[{g.id}][{start_period + t}]")
        if g.min_down > 1:
            for t in range(n_periods):
                coeffs = {sd[g.id, tau]: 1.0
                          for tau in range(max(0, t - g.min_down + 1), t + 1)}
                coeffs[x[g.id, t]] = 1.0
                model.add_row(coeffs, SENSE_LE, 1.0,
                              f"min_down[{g.id}][{start_period + t}]")

    # frequency-security rows
    if options.frequency_constraints:
        for t in range(n_periods):
            tt = start_period + t
            add(inertia_floor_row(cells[t, 0], fleet, freq, tag=f"[{tt}]"))
            for s in range(n_branches):
                try:
                    rows = cell_rows(
                        cells[t, s], fleet, freq, demand[t], r_max,
                        largest=big, loss_floor=floor_big, tag=f"[{tt}][{s}]")
                except ValueError as exc:  # the grid check, an input error
                    raise SchedulerError(f"period {tt}: {exc}") from exc
                for row in rows:
                    add(row)

    # probability-weighted operating cost
    hours = system.period_hours
    objective = {}
    for g in fleet:
        for t in range(n_periods):
            if g.no_load_cost > 0.0:
                objective[x[g.id, t]] = g.no_load_cost * hours
            if g.startup_cost > 0.0:
                objective[su[g.id, t]] = g.startup_cost
            if g.marginal_cost != 0.0:
                for s in range(n_branches):
                    objective[p[g.id, t, s]] = probs[s] * g.marginal_cost * hours
    model.set_objective(objective)
    return model


def assert_same_model(model, reference):
    """Bit-equal compiled arrays, the same terms in the same order in each
    row, and the same names and labels."""
    got, want = model.compile(), reference.compile()
    for attr in ("c", "lb", "ub", "integrality", "lo", "hi"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), attr
    assert got.a.shape == want.a.shape
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(got.a, attr), getattr(want.a, attr)
        assert a.tobytes() == b.tobytes(), attr
    assert model.name == reference.name
    assert model.names == reference.names
    assert [row.label for row in model.rows] == \
        [row.label for row in reference.rows]
    assert [model.row_label(i) for i in range(model.n_rows)] == \
        [row.label for row in reference.rows]
