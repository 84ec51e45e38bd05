"""Frequency-secured stochastic unit commitment and rolling simulation.

``build_uc`` assembles one scheduling window as a mixed-integer model.
Commitments (and the implied start/stop indicators) are first-stage
decisions shared by every net-demand branch; dispatch, response holdings
and the sizable-loss quantities are recourse, one copy per period and
branch.  When frequency constraints are enabled, each period's cells get
their loss, summed-response and product variables, as arrays, from
:func:`frequc.freqsec.register_decisions`, once the fixed commitments are
known and the free ones that :func:`frequc.freqsec.must_run` finds forced
on are pinned, and their rows from :func:`frequc.freqsec.period_rows`,
every branch's for one period as one block; the nadir rows are the chord
envelope of the convex requirement, so a solution is secure by
construction at every loss.  Every row family is added as one block of
arrays.  Each period's ``cover`` row asks for the fewest units besides
the largest whose ratings reach the period's highest net demand minus
the largest rating: valid for every integer schedule, it only tightens
the relaxation.
``solve_uc`` builds, solves and unpacks one window into a
:class:`UcSolution`, arrays with the period axis first and the units in
fleet order; without frequency constraints it tries the LP relaxation
first, which is often integral.  ``cost_coefficients`` holds each unit's
cost coefficients; the objective and ``period_costs``, the one cost
formula after the solve, both read them.

``solve_rolling_horizon`` walks a longer span window by window and
re-dispatches the committed periods against the realized net demand, with
the window's ``(T, units)`` commitments pinned.  The run's path is those
one-branch re-dispatches joined period by period (:func:`concatenate`), a
:class:`UcSolution` like any window, from which the study metrics (load
factors, emissions) are read.  The cost of frequency services is the gap
between the expected costs of a secured and an unsecured run.

``verify_solution`` swing-checks every cell of a window or of a rolling
path; it is the judge of security, not the linear rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import freqsec
from .freqdyn import certify_operating_point
from .milp import MilpModel, ModelError, solve
from .milp.model import SENSE_EQ, SENSE_GE, SENSE_LE
from .sysmodel import ScenarioBranch, ScenarioTree, largest_unit

LOSS_MODES = ("fixed", "optimised")


class SchedulerError(ValueError):
    """Raised for inconsistent scheduling inputs or unusable windows."""


@dataclass(frozen=True)
class UcOptions:
    """Knobs for one scheduling window.

    ``largest_loss_mode`` selects how the largest plant is operated:
    ``fixed`` pins it at maximum output, ``optimised`` lets the solver
    deload it (when the unit allows deloading) so the sizable loss
    becomes a decision.  The plant is committed in both modes.
    """

    frequency_constraints: bool = True
    deloading_enabled: bool = True
    horizon: int = 8
    first_stage: int = 1
    largest_loss_mode: str = "optimised"

    def __post_init__(self):
        if self.horizon < 1:
            raise SchedulerError("options: horizon must be at least 1 period")
        if not (1 <= self.first_stage <= self.horizon):
            raise SchedulerError(
                "options: first_stage must lie in [1, horizon], got "
                f"{self.first_stage} with horizon {self.horizon}"
            )
        if self.largest_loss_mode not in LOSS_MODES:
            raise SchedulerError(
                f"options: unknown largest_loss_mode {self.largest_loss_mode!r}"
            )


@dataclass(frozen=True)
class UnitState:
    """Commitment state carried across windows: on/off and for how long."""

    on: bool
    hours: int

    def __post_init__(self):
        if self.hours < 0:
            raise SchedulerError("unit state: hours must be >= 0")


def default_initial_state(system) -> dict:
    """Everything off, long enough ago that no minimum-time carry applies."""
    return {g.id: UnitState(on=False, hours=10_000) for g in system.generators}


def _window_net(system, tree, start_period: int, n_periods: int):
    """Demand slice and per-branch net demand with feasibility screens."""
    if start_period < 0 or start_period + n_periods > system.n_periods:
        raise SchedulerError(
            f"window [{start_period}, {start_period + n_periods}) falls outside "
            f"the {system.n_periods}-period demand profile"
        )
    demand = np.array(system.demand_profile[start_period:start_period + n_periods])
    net = np.array([
        [br.net_demand[t] for br in tree.branches] for t in range(n_periods)
    ])
    cap = sum(g.p_max for g in system.generators)
    for t in range(n_periods):
        for s in range(len(tree.branches)):
            if net[t, s] > cap + 1e-9:
                raise SchedulerError(
                    f"period {start_period + t}, branch {s}: net demand "
                    f"{net[t, s]:.1f} MW exceeds dispatchable capacity {cap:.1f} MW"
                )
            if net[t, s] > demand[t] + 1e-9:
                raise SchedulerError(
                    f"period {start_period + t}, branch {s}: net demand "
                    f"{net[t, s]:.1f} MW exceeds demand {demand[t]:.1f} MW "
                    "(negative wind availability)"
                )
    return demand, net


def _largest_runs_deloaded(options: UcOptions, big) -> bool:
    return (options.largest_loss_mode == "optimised"
            and options.deloading_enabled and big.deloadable)


def _units_to_cover(ratings, need: float) -> int:
    """Fewest of ``ratings`` that sum to at least ``need``, to the capacity
    screen's 1e-9 MW: the largest first."""
    count, total = 0, 0.0
    for rating in sorted(ratings, reverse=True):
        if total >= need - 1e-9:
            break
        total += rating
        count += 1
    return count


class UcModel(MilpModel):
    """A window's model with what :func:`extract_solution` reads: the
    column ids ``commit`` and ``startup`` of shape ``(T, units)``,
    ``output`` and ``pfr`` of shape ``(T, units, S)``, ``wind`` and
    ``loss`` of shape ``(T, S)`` (``loss`` is None without frequency
    constraints), and the window's ``periods``, ``demand``, ``net`` demand
    and branch ``probabilities``."""

    commit: np.ndarray
    startup: np.ndarray
    output: np.ndarray
    pfr: np.ndarray
    wind: np.ndarray
    loss: np.ndarray | None
    periods: np.ndarray
    demand: np.ndarray
    net: np.ndarray
    probabilities: np.ndarray


def build_uc(system, tree, options: UcOptions, *, start_period: int = 0,
             initial_state=None, fixed_commitments=None) -> UcModel:
    """Assemble the scheduling model for one window.

    The window covers the first ``min(options.horizon, tree.n_periods)``
    periods of ``tree``, aligned with the demand profile at
    ``start_period``.  ``fixed_commitments``, 0/1 values of shape
    ``(T, units)`` with the units in fleet order, pins the commitment
    variables; the rolling solver uses this for the realized re-dispatch.

    Each row family repeats one pattern per cell or per unit, so it is
    added as one block of arrays; :func:`frequc.freqsec.period_rows` gives
    each period's frequency rows, every branch's, as one block.  With
    frequency constraints, a commitment left free by the fixed bounds that
    :func:`frequc.freqsec.must_run` finds forced on is pinned on: no
    schedule the rows admit has it off, and its cells need no product
    auxiliary.  With the loss fixed at the full rating, the bundled fleet
    has every unit pinned, so such a window is an LP.
    """
    fleet = system.generators
    freq = system.frequency
    big = largest_unit(fleet)
    n_periods = min(options.horizon, tree.n_periods)
    if n_periods < 1:
        raise SchedulerError("window: scenario branches carry no periods")
    n_branches = len(tree.branches)
    probs = np.array([br.probability for br in tree.branches])
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

    model = UcModel(name=f"uc_p{start_period}_{n_periods}x{n_branches}")
    # array shapes: G units, T periods, S branches
    G, T, S = len(fleet), n_periods, n_branches
    ids = [g.id for g in fleet]
    big_i = ids.index(big.id)
    periods = range(start_period, start_period + T)

    # first-stage commitment, start and stop indicators (shared by branches)
    heads = [(f"x[{gid}]", f"su[{gid}]", f"sd[{gid}]") for gid in ids]
    first = model.add_variables(
        [head + f"[{tt}]" for unit in heads for tt in periods for head in unit],
        0.0, 1.0, integer=np.tile([True, False, False], G * T),
    ).reshape(G, T, 3)
    x, su, sd = first[..., 0], first[..., 1], first[..., 2]

    # recourse per period and branch: each unit's output and response,
    # then the wind
    ub = np.empty((T, S, 2 * G + 1))
    ub[..., 0:2 * G:2] = [g.p_max for g in fleet]
    ub[..., 1:2 * G:2] = [g.pfr_max for g in fleet]
    ub[..., 2 * G] = np.where(0.0 > avail, 0.0, avail)
    heads = [head for gid in ids for head in (f"p[{gid}]", f"r[{gid}]")]
    heads.append("wind")
    recourse = model.add_variables(
        [head + f"[{tt}][{s}]" for tt in periods for s in range(S)
         for head in heads],
        0.0, ub.ravel(),
    ).reshape(T, S, 2 * G + 1)
    p = recourse[..., 0:2 * G:2].transpose(2, 0, 1)
    r = recourse[..., 1:2 * G:2].transpose(2, 0, 1)
    wind = recourse[..., 2 * G]

    # the largest plant is committed throughout; minimum-time carry and
    # externally pinned schedules come next and must agree with it
    x_ids = x.tolist()
    for t in range(T):
        model.fix_variable(x_ids[big_i][t], 1.0)
    try:
        for i, g in enumerate(fleet):
            state = initial_state[g.id]
            if state.on and state.hours < g.min_up:
                for t in range(min(g.min_up - state.hours, T)):
                    model.fix_variable(x_ids[i][t], 1.0)
            elif not state.on and state.hours < g.min_down:
                for t in range(min(g.min_down - state.hours, T)):
                    model.fix_variable(x_ids[i][t], 0.0)
        if fixed_commitments is not None:
            values = np.asarray(fixed_commitments, dtype=float)
            if values.ndim != 2 or values.shape[1] != G or len(values) < T:
                raise SchedulerError(
                    f"fixed commitments of shape {values.shape} do not cover "
                    f"the {T} window periods of {G} units"
                )
            values = values[:T].T.tolist()
            for i in range(G):
                for t in range(T):
                    model.fix_variable(x_ids[i][t], round(values[i][t]))
    except ModelError as exc:
        raise SchedulerError(
            f"commitment requirements conflict: {exc}"
        ) from exc

    # each cell's security variables, once the fixed commitments are known:
    # a unit committed by a fixed bound needs no product auxiliary.  A free
    # commitment that the security rows force on is pinned first.  The
    # commitments are shared, so every branch of a period gets the same
    # variables; ``cells[t]`` holds the period's cells, one per branch, and
    # ``constants[t]`` the numbers its rows share, computed once
    cells, constants = [], []
    if options.frequency_constraints:
        for t, tt in enumerate(periods):
            try:
                constants.append(freqsec.period_constants(fleet, freq,
                                                          demand[t]))
            except ValueError as exc:  # the grid check, an input error
                raise SchedulerError(f"period {tt}: {exc}") from exc
            col = x[:, t]
            pins = freqsec.must_run(fleet, freq, constants[t], floor_big,
                                    model.ub[col])
            for j in col[pins & (model.lb[col] != model.ub[col])].tolist():
                model.fix_variable(j, 1.0)
            cells.append(freqsec.register_decisions(
                model, fleet, freq, constants[t], r_max, period=tt,
                commit=col, output=p[:, t].T, pfr=r[:, t].T))

    # power balance and unit limits: the same rows in every cell, over the
    # cell's columns [p..., r..., wind, x...]
    cell_cols = np.concatenate(
        [p.transpose(1, 2, 0), r.transpose(1, 2, 0), wind[..., None],
         np.repeat(x.T[:, None, :], S, axis=1)], axis=2)
    P, R, W, X = 0, G, 2 * G, 2 * G + 1  # offsets in a cell's columns
    template = [("balance", None, SENSE_EQ,
                 [P + i for i in range(G)] + [W], [1.0] * (G + 1))]
    for i, g in enumerate(fleet):
        if g.p_min > 0.0:
            template.append(("pmin", g.id, SENSE_GE, [P + i, X + i],
                             [1.0, -g.p_min]))
        template.append(("headroom", g.id, SENSE_LE, [P + i, R + i, X + i],
                         [1.0, 1.0, -g.p_max]))
        if g.pfr_max > 0.0:
            template.append(("pfr_cap", g.id, SENSE_LE, [R + i, X + i],
                             [1.0, -g.pfr_max]))
    k = G + 1
    n_tpl = len(template)
    tpl_cols = np.array([c + [c[0]] * (k - len(c)) for *_, c, _ in template])
    tpl_vals = np.array([v + [0.0] * (k - len(v)) for *_, v in template])
    rhs = np.zeros((T, S, n_tpl))
    rhs[..., 0] = demand[:, None]

    cell_tags = [f"[{tt}][{s}]" for tt in periods for s in range(S)]
    heads = [kind if gid is None else f"{kind}[{gid}]"
             for kind, gid, *_ in template]
    model.add_rows(
        cell_cols[:, :, tpl_cols].reshape(-1, k),
        np.tile(tpl_vals, (T * S, 1)),
        np.tile([row[2] for row in template], T * S), rhs.ravel(),
        [head + tag for tag in cell_tags for head in heads])

    # largest-plant operating mode
    deloaded = _largest_runs_deloaded(options, big)
    name = "deload_floor" if deloaded else "fix_largest"
    model.add_rows(
        p[big_i].reshape(-1, 1), np.ones((T * S, 1)),
        SENSE_GE if deloaded else SENSE_EQ,
        floor_big if deloaded else big.p_max,
        [name + tag for tag in cell_tags])

    # committed-capacity cover: every branch's thermal output reaches its
    # net demand, the largest unit gives at most its rating and every other
    # unit at most its committed rating, so at least k_t of them are on
    others = [i for i in range(G) if i != big_i]
    needs = [_units_to_cover([fleet[i].p_max for i in others],
                             float(net[t].max()) - big.p_max)
             for t in range(T)]
    covered = [t for t in range(T) if needs[t] > 0]
    if covered:
        model.add_rows(
            x[others][:, covered].T, np.ones((len(covered), len(others))),
            SENSE_GE, [float(needs[t]) for t in covered],
            [f"cover[{start_period + t}]" for t in covered])

    # start/stop linking and minimum up/down times, per unit: T link rows,
    # then T min_up and T min_down rows for a unit whose minimum time
    # exceeds one period.  A minimum-time row sums the indicators of the
    # window's last periods, up to the minimum time: slot w of row t holds
    # period t - T + 1 + w, a zero coefficient where that lies outside
    step = np.arange(T)
    k = max(4, T + 1)
    cols = np.empty((G, 3, T, k), dtype=np.int64)
    cols[...] = x[:, None, :, None]
    vals = np.zeros((G, 3, T, k))
    cols[:, 0, :, :3] = np.stack([x, su, sd], axis=-1)
    vals[:, 0, :, :3] = [1.0, -1.0, 1.0]
    cols[:, 0, 1:, 3] = x[:, :-1]
    vals[:, 0, 1:, 3] = -1.0
    tau = step[:, None] - T + 1 + step[None, :]
    for f, ind, times, sign in ((1, su, [g.min_up for g in fleet], -1.0),
                                (2, sd, [g.min_down for g in fleet], 1.0)):
        inside = (tau >= 0) & (tau > step[:, None]
                               - np.array(times)[:, None, None])
        cols[:, f, :, :T] = np.where(inside, ind[:, np.clip(tau, 0, None)],
                                     x[:, :, None])
        vals[:, f, :, :T] = inside
        vals[:, f, :, T] = sign
    on = np.array([1.0 if initial_state[gid].on else 0.0 for gid in ids])
    rhs = np.zeros((G, 3, T))
    rhs[:, 0, 0] = on
    rhs[:, 2] = 1.0
    present = np.ones((G, 3, T), dtype=bool)
    present[:, 1] = np.array([g.min_up > 1 for g in fleet])[:, None]
    present[:, 2] = np.array([g.min_down > 1 for g in fleet])[:, None]
    heads = [f"{kind}[{gid}]" for gid, kinds in zip(ids, present[..., 0])
             for kind, used in zip(("commit_link", "min_up", "min_down"), kinds)
             if used]
    model.add_rows(
        cols[present], vals[present],
        np.array([SENSE_EQ, SENSE_LE, SENSE_LE])[np.nonzero(present)[1]],
        rhs[present],
        [head + f"[{tt}]" for head in heads for tt in periods])

    # frequency-security rows: per period the inertia floor, then each
    # branch's cell rows
    for period_cells, shared in zip(cells, constants):
        model.add_block(freqsec.period_rows(
            period_cells, fleet, freq, shared, r_max, largest=big,
            loss_floor=floor_big))

    # probability-weighted operating cost
    no_load, startup, fuel = cost_coefficients(system)
    index = np.concatenate([x[no_load > 0.0].ravel(), su[startup > 0.0].ravel(),
                            p[fuel != 0.0].ravel()])
    weight = np.concatenate([
        np.repeat(no_load[no_load > 0.0], T),
        np.repeat(startup[startup > 0.0], T),
        np.repeat(probs * fuel[fuel != 0.0, None, None], T, axis=1).ravel()])
    model.set_objective(dict(zip(index.tolist(), weight.tolist())))

    model.commit, model.startup, model.wind = x.T, su.T, wind
    model.output, model.pfr = p.transpose(1, 0, 2), r.transpose(1, 0, 2)
    model.loss = (np.array([period.loss for period in cells])
                  if options.frequency_constraints else None)
    model.periods = np.arange(start_period, start_period + T)
    model.demand, model.net, model.probabilities = demand, net, probs
    return model


@dataclass
class UcSolution:
    """A solved window, or a rolling path, as arrays with the period axis
    first and the units in fleet order.

    ``periods`` and ``demand`` have shape ``(T,)``; ``commit`` and
    ``startup`` ``(T, units)``; ``output`` and ``pfr`` ``(T, units, S)``;
    ``net``, ``wind_used`` and ``loss`` ``(T, S)``; ``probabilities``
    ``(S,)``.  ``loss`` is NaN when the window was built without frequency
    constraints.  A rolling path has one branch (see :func:`concatenate`).
    """

    periods: np.ndarray
    demand: np.ndarray
    net: np.ndarray
    commit: np.ndarray
    startup: np.ndarray
    output: np.ndarray
    pfr: np.ndarray
    wind_used: np.ndarray
    loss: np.ndarray
    probabilities: np.ndarray
    expected_cost: float
    status: str
    gap: float
    nodes: int

    @property
    def curtailment(self) -> np.ndarray:
        """Wind available in each cell but not used, ``(T, S)``."""
        return self.demand[:, None] - self.net - self.wind_used


# the fields whose first axis is the period
PERIOD_FIELDS = ("periods", "demand", "net", "commit", "startup", "output",
                 "pfr", "wind_used", "loss")


def extract_solution(model: UcModel, result) -> UcSolution:
    """Read a solver result back into the window's arrays."""
    if result.values is None:
        raise SchedulerError(f"cannot extract values from a {result.status} result")
    values = result.values
    return UcSolution(
        periods=model.periods,
        demand=model.demand,
        net=model.net,
        commit=values[model.commit],
        startup=values[model.startup],
        output=values[model.output],
        pfr=values[model.pfr],
        wind_used=values[model.wind],
        loss=(np.full(model.net.shape, np.nan) if model.loss is None
              else values[model.loss]),
        probabilities=model.probabilities,
        expected_cost=float(result.objective),
        status=result.status,
        gap=result.gap,
        nodes=result.nodes,
    )


def concatenate(solutions) -> UcSolution:
    """Consecutive solutions of the same branches as one, each field with a
    period axis joined along it: a rolling run's path is its one-branch
    re-dispatches joined this way.  Costs and node counts add up; the gap
    is the largest."""
    return UcSolution(
        **{name: np.concatenate([getattr(sol, name) for sol in solutions])
           for name in PERIOD_FIELDS},
        probabilities=solutions[0].probabilities,
        expected_cost=sum(sol.expected_cost for sol in solutions),
        status=solutions[0].status,
        gap=max(sol.gap for sol in solutions),
        nodes=sum(sol.nodes for sol in solutions),
    )


def solve_uc(system, tree, options: UcOptions, *, start_period: int = 0,
             initial_state=None, fixed_commitments=None):
    """Build, solve and unpack one window; returns (solution, model, raw).

    A window without frequency constraints is tried as an LP first: its
    relaxation is often integral, and then it is the answer."""
    model = build_uc(system, tree, options, start_period=start_period,
                     initial_state=initial_state,
                     fixed_commitments=fixed_commitments)
    raw = solve(model, relax_first=not options.frequency_constraints)
    if raw.status != "optimal":
        return None, model, raw
    return extract_solution(model, raw), model, raw


# -- costs --------------------------------------------------------------------

def cost_coefficients(system):
    """Each unit's no-load cost per committed period, start-up cost per
    start and fuel cost per MW dispatched for a period, in fleet order: the
    objective's coefficients, and :func:`period_costs`'s."""
    hours = system.period_hours
    fleet = system.generators
    return (np.array([g.no_load_cost * hours for g in fleet]),
            np.array([g.startup_cost for g in fleet]),
            np.array([g.marginal_cost * hours for g in fleet]))


def _unit_sum(values):
    """Sum over the unit axis (axis 1), adding one unit at a time in fleet
    order; numpy's pairwise sum would change the last digits."""
    total = 0.0
    for i in range(values.shape[1]):
        total = total + values[:, i]
    return total


def period_costs(solution: UcSolution, system):
    """No-load and start-up cost of each period, ``(T,)``, and fuel cost of
    each period in each branch, ``(T, S)``.  The probability-weighted sum
    of all three is the window's ``expected_cost``."""
    no_load, startup, fuel = cost_coefficients(system)
    return (_unit_sum(solution.commit * no_load),
            _unit_sum(solution.startup * startup),
            _unit_sum(solution.output * fuel[:, None]))


# -- post-solve security verification ---------------------------------------

@dataclass(frozen=True)
class CellCheck:
    period: int
    scenario: int
    inertia: float
    pfr: float
    loss: float
    report: object


@dataclass
class VerificationReport:
    checks: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.report.ok for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.report.ok]


def committed_inertia(system, commit) -> np.ndarray:
    """Post-loss inertia (MW s^2) of each period's commitments, ``commit``
    of shape ``(T, units)``."""
    freq = system.frequency
    coefficients = freqsec.inertia_coefficients(system.generators, freq)
    return _unit_sum(commit * coefficients) - freqsec.lost_inertia(freq)


def verify_solution(solution: UcSolution, system,
                    tol: float = 1e-9) -> VerificationReport:
    """Swing-check every period and branch of a window or a rolling path.

    A NaN loss (no loss variable: frequency constraints off) is graded at
    the largest single-unit output, so the report grades what a cost-only
    schedule would actually risk.
    """
    freq = system.frequency
    inertia = committed_inertia(system, solution.commit).tolist()
    response = _unit_sum(solution.pfr).tolist()
    losses = np.where(np.isnan(solution.loss), solution.output.max(axis=1),
                      solution.loss).tolist()
    report = VerificationReport()
    for t, period in enumerate(solution.periods.tolist()):
        damping_product = freq.damping * solution.demand[t]
        for s, loss in enumerate(losses[t]):
            _, sec = certify_operating_point(
                inertia[t], damping_product, response[t][s], freq.t_d, loss,
                freq, tol=tol)
            report.checks.append(CellCheck(
                period=period, scenario=s, inertia=inertia[t],
                pfr=response[t][s], loss=loss, report=sec))
    return report


# The rolling study's name for the same check; ``perfbench/`` imports it and
# traces the study's verify layer through it.
verify_trajectory = verify_solution


# -- rolling horizon ---------------------------------------------------------

def realized_series(tree: ScenarioTree) -> np.ndarray:
    """Median net-demand path used as the out-turn in simulations."""
    levels = np.array(tree.quantile_levels)
    table = np.array([br.net_demand for br in tree.branches])
    return np.array([
        float(np.interp(0.5, levels, table[:, t]))
        for t in range(tree.n_periods)
    ])


def slice_tree(tree: ScenarioTree, start: int, length: int) -> ScenarioTree:
    """Window view of a scenario tree, recomputing the root value."""
    if start < 0 or length < 1 or start + length > tree.n_periods:
        raise SchedulerError(
            f"tree slice [{start}, {start + length}) outside the "
            f"{tree.n_periods}-period tree"
        )
    levels = np.array(tree.quantile_levels)
    first = [br.net_demand[start] for br in tree.branches]
    return ScenarioTree(
        root=float(np.interp(0.5, levels, first)),
        branches=tuple(
            ScenarioBranch(br.net_demand[start:start + length], br.probability)
            for br in tree.branches
        ),
        quantile_levels=tree.quantile_levels,
    )


def _advance_state(state: dict, ids, commit) -> dict:
    """The state after the committed periods ``commit`` ``(steps, ids)``."""
    nxt = {}
    for gid, values in zip(ids, np.asarray(commit, dtype=float).T.tolist()):
        last = bool(round(values[-1]))
        run = 0
        for v in reversed(values):
            if bool(round(v)) != last:
                break
            run += 1
        prev = state[gid]
        if run == len(values) and prev.on == last:
            run += prev.hours
        nxt[gid] = UnitState(on=last, hours=run)
    return nxt


@dataclass
class RollingResult:
    windows: list
    trajectory: UcSolution | None  # the path: see solve_rolling_horizon
    status: str
    message: str = ""
    expected_cost: float = float("nan")

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def solve_rolling_horizon(system, scenarios: ScenarioTree, options: UcOptions,
                          initial_state=None) -> RollingResult:
    """Window-by-window simulation over the whole demand profile.

    Each window solves the stochastic model, commits its first
    ``options.first_stage`` periods, re-dispatches those periods against
    the realized (median) net demand with commitments pinned, then rolls
    forward.  The run's ``trajectory`` is its re-dispatches joined by
    :func:`concatenate`, and its ``expected_cost`` the summed expected cost
    of every window's committed periods.  A window the solver cannot close
    aborts the run; the partial trajectory and the failing status are
    returned for diagnosis.
    """
    if scenarios.n_periods != system.n_periods:
        raise SchedulerError(
            f"scenario tree covers {scenarios.n_periods} periods, the demand "
            f"profile {system.n_periods}"
        )
    state = dict(initial_state) if initial_state is not None \
        else default_initial_state(system)
    realized = realized_series(scenarios)
    ids = [g.id for g in system.generators]
    n = system.n_periods
    windows = []
    pieces = []
    expected = 0.0

    def partial():
        return concatenate(pieces) if pieces else None

    t0 = 0
    while t0 < n:
        window_len = min(options.horizon, n - t0)
        commit_len = min(options.first_stage, window_len)
        wtree = slice_tree(scenarios, t0, window_len)
        solution, _, raw = solve_uc(
            system, wtree, options, start_period=t0, initial_state=state)
        if solution is None:
            return RollingResult(
                windows, partial(), status="solver",
                message=f"window at period {t0}: {raw.status}")
        windows.append(solution)
        no_load, startup, fuel = period_costs(solution, system)
        expected += float((no_load + startup + fuel @ solution.probabilities)
                          [:commit_len].sum())

        commit = solution.commit[:commit_len]
        rtree = ScenarioTree(
            root=float(realized[t0]),
            branches=(ScenarioBranch(
                tuple(realized[t0:t0 + commit_len]), 1.0),),
            quantile_levels=(0.5,),
        )
        ropts = replace(options, horizon=commit_len, first_stage=commit_len)
        redispatch, _, raw = solve_uc(
            system, rtree, ropts, start_period=t0, initial_state=state,
            fixed_commitments=commit)
        if redispatch is None:
            return RollingResult(
                windows, partial(), status="solver",
                message=f"re-dispatch at period {t0}: {raw.status}")
        pieces.append(redispatch)
        state = _advance_state(state, ids, commit)
        t0 += commit_len

    return RollingResult(windows, concatenate(pieces), status="ok",
                         expected_cost=expected)


# -- study metrics ------------------------------------------------------------

def load_factor(path: UcSolution, system, unit_id: str) -> float:
    """Energy a unit produced over a path divided by its maximum energy."""
    ids = [g.id for g in system.generators]
    if unit_id not in ids:
        raise KeyError(f"unknown unit {unit_id!r}")
    i = ids.index(unit_id)
    hours = system.period_hours
    energy = float(path.output[:, i].sum()) * hours
    ceiling = system.generators[i].p_max * hours * len(path.periods)
    return energy / ceiling


def emissions(path: UcSolution, system) -> float:
    """Total emissions (tCO2) of the energy dispatched along a path."""
    total = 0.0
    for i, g in enumerate(system.generators):
        total += g.emissions_rate * float(path.output[:, i].sum()) \
            * system.period_hours
    return total
