"""The window builder as a loop over cells and units, one ``add_row`` per
row: the form ``frequc.scheduler.build_uc`` had before it assembled each
row family as arrays.  The tests require the two compiled models to be
equal, column for column and row for row.
"""

from __future__ import annotations

from frequc import freqsec
from frequc.milp import MilpModel, ModelError
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


def build_uc_loop(system, tree, options: UcOptions, *, start_period: int = 0,
                  initial_state=None, fixed_commitments=None,
                  security_pins: bool = True) -> MilpModel:
    """Assemble the scheduling model for one window.

    The window covers the first ``min(options.horizon, tree.n_periods)``
    periods of ``tree``, aligned with the demand profile at
    ``start_period``.  ``fixed_commitments`` (generator id -> 0/1 values
    per window period) pins the commitment variables; the rolling solver
    uses this for the realized re-dispatch.  With ``security_pins`` off, the
    free commitments that ``freqsec.must_run`` finds forced on stay free.
    """
    fleet = system.generators
    freq = system.frequency
    big = largest_unit(fleet)
    n_periods = min(options.horizon, tree.n_periods)
    if n_periods < 1:
        raise SchedulerError("window: scenario branches carry no periods")
    n_branches = len(tree.branches)
    probs = [br.probability for br in tree.branches]
    demand, net = _window_net(system, tree, start_period, n_periods)
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
    for g in fleet:
        if g.id not in initial_state:
            raise SchedulerError(f"initial state missing unit {g.id}")

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
                r[g.id, t, s] = model.add_continuous(
                    f"r[{g.id}][{tt}][{s}]", 0.0, g.pfr_max)
            wind[t, s] = model.add_continuous(
                f"wind[{tt}][{s}]", 0.0, max(avail[t, s], 0.0))

    # the largest plant is committed throughout; minimum-time carry and
    # externally pinned schedules come next and must agree with it
    for t in range(n_periods):
        model.fix_variable(x[big.id, t], 1.0)
    try:
        for g in fleet:
            state = initial_state[g.id]
            if state.on and state.hours < g.min_up:
                for t in range(min(g.min_up - state.hours, n_periods)):
                    model.fix_variable(x[g.id, t], 1.0)
            elif not state.on and state.hours < g.min_down:
                for t in range(min(g.min_down - state.hours, n_periods)):
                    model.fix_variable(x[g.id, t], 0.0)
        if fixed_commitments is not None:
            for g in fleet:
                values = fixed_commitments[g.id]
                if len(values) < n_periods:
                    raise SchedulerError(
                        f"fixed commitments for {g.id} cover {len(values)} of "
                        f"{n_periods} window periods"
                    )
                for t in range(n_periods):
                    model.fix_variable(x[g.id, t], round(float(values[t])))
    except ModelError as exc:
        raise SchedulerError(
            f"commitment requirements conflict: {exc}"
        ) from exc

    # security must-run pins, one unit at a time
    if options.frequency_constraints and security_pins:
        for t in range(n_periods):
            try:
                pins = freqsec.must_run(fleet, freq, demand[t], floor_big,
                                        [model.ub[x[g.id, t]] for g in fleet])
            except ValueError as exc:  # the grid check, an input error
                raise SchedulerError(f"period {start_period + t}: {exc}") \
                    from exc
            for g, pin in zip(fleet, pins):
                if pin and model.lb[x[g.id, t]] != model.ub[x[g.id, t]]:
                    model.fix_variable(x[g.id, t], 1.0)

    # each cell's security variables, one cell at a time, once the fixed
    # commitments are known: a unit committed by a fixed bound needs no
    # product auxiliary
    cells = {}
    if options.frequency_constraints:
        for t in range(n_periods):
            for s in range(n_branches):
                [cells[t, s]] = freqsec.register_decisions(
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

    # largest-plant operating mode
    for t in range(n_periods):
        tt = start_period + t
        for s in range(n_branches):
            if _largest_runs_deloaded(options, big):
                model.add_row({p[big.id, t, s]: 1.0}, SENSE_GE, floor_big,
                              f"deload_floor[{tt}][{s}]")
            else:
                model.add_row({p[big.id, t, s]: 1.0}, SENSE_EQ, big.p_max,
                              f"fix_largest[{tt}][{s}]")

    # committed-capacity cover: every branch's thermal output reaches its
    # net demand, the largest unit gives at most its rating and every other
    # unit at most its committed rating, so at least k_t of them are on
    others = [g for g in fleet if g.id != big.id]
    for t in range(n_periods):
        k = _units_to_cover([g.p_max for g in others],
                            float(net[t].max()) - big.p_max)
        if k > 0:
            model.add_row({x[g.id, t]: 1.0 for g in others}, SENSE_GE,
                          float(k), f"cover[{start_period + t}]")

    # start/stop linking and minimum up/down times
    for g in fleet:
        state = initial_state[g.id]
        for t in range(n_periods):
            tt = start_period + t
            coeffs = {x[g.id, t]: 1.0, su[g.id, t]: -1.0, sd[g.id, t]: 1.0}
            if t == 0:
                model.add_row(coeffs, SENSE_EQ, 1.0 if state.on else 0.0,
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
            add(freqsec.inertia_floor_row(cells[t, 0], fleet, freq,
                                          tag=f"[{tt}]"))
            for s in range(n_branches):
                try:
                    rows = freqsec.cell_rows(
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
    for field in ("c", "lb", "ub", "integrality", "lo", "hi"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
    assert got.a.shape == want.a.shape
    for field in ("indptr", "indices", "data"):
        a, b = getattr(got.a, field), getattr(want.a, field)
        assert a.tobytes() == b.tobytes(), field
    assert model.objective_constant == reference.objective_constant
    assert model.name == reference.name
    assert model.names == reference.names
    assert [row.label for row in model.rows] == \
        [row.label for row in reference.rows]
    assert [model.row_label(i) for i in range(model.n_rows)] == \
        [row.label for row in reference.rows]
